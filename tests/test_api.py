import ast
from pathlib import Path

import keyshare

PACKAGE = Path(keyshare.__file__).parent
# public by design although no module reads it: H(A | C), the counterpart
# of mutual_information
API_ONLY = {"entropy"}


def test_every_export_is_used_inside_the_package():
    # a public name that only tests reach is dead weight: every name
    # keyshare/__init__.py imports must be read by some other module of the
    # package (a def or class line names its object without using it)
    exported = {alias.asname or alias.name
                for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    assert exported, "no exports parsed"
    assert sorted(exported - used - API_ONLY) == []
    assert API_ONLY <= exported - used
