import ast
import functools
import importlib
import importlib.util
import inspect
import math
import re
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import keyshare
from keyshare import (DegradedSourceSpec, JointSource, ProtocolConfig, ValidationError,
                      entropy_profile_exact, is_supermodular, shapley_from_game,
                      value_function)

PACKAGE = Path(keyshare.__file__).parent
EXPORTED = {alias.asname or alias.name
            for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
            if isinstance(node, ast.ImportFrom) for alias in node.names}
# public by design although no module reads it: H(A | C), the counterpart
# of mutual_information
API_ONLY = {"entropy"}


def test_every_export_is_used_inside_the_package():
    # a public name that only tests reach is dead weight: every name
    # keyshare/__init__.py imports must be read by some other module of the
    # package (a def or class line names its object without using it), and
    # so must every public method and property of an exported class, as an
    # attribute
    used, attributes = set(), set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    used |= attributes
    assert EXPORTED, "no exports parsed"
    assert sorted(EXPORTED - used - API_ONLY) == []
    assert API_ONLY <= EXPORTED - used
    kinds = (property, functools.cached_property, classmethod, staticmethod)
    methods = [(name, attr) for name in EXPORTED if isinstance(getattr(keyshare, name), type)
               for attr, value in vars(getattr(keyshare, name)).items()
               if not attr.startswith("_") and (inspect.isfunction(value)
                                                or isinstance(value, kinds))]
    assert any(attr == "to_json" for _, attr in methods), "no methods found"
    assert sorted(f"{name}.{attr}" for name, attr in methods if attr not in attributes) == []


def _load_tracer():
    # the benchmark's tracer imports only the standard library
    path = PACKAGE.parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_wrap_targets_resolve():
    # each span of the benchmark's tracer replaces an attribute looked up in
    # at least one of its modules; a helper moved between modules must not
    # silently drop a layer.  polar.profile_lookup names a cache that no
    # longer exists and is the one target allowed to miss.
    missing = set()
    for name, modules, path, _ in _load_tracer().TARGETS:
        owner_path, _, attr = path.rpartition(".")
        owners = [importlib.import_module(m) for m in modules]
        if owner_path:
            owners = [getattr(o, owner_path, None) for o in owners]
        if not any(o is not None and attr in vars(o) for o in owners):
            missing.add(name)
    assert missing <= {"polar.profile_lookup"}


def test_benchmark_worker_reads_resolve():
    # the benchmark's worker binds keyshare modules by `from keyshare import
    # ...` (some kept on self) and reads names off them; each name must
    # exist, so deleting one the worker still reads fails here and not only
    # in a benchmark run
    tree = ast.parse((PACKAGE.parents[1] / "perfbench" / "worker.py").read_text())
    modules = {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "keyshare"
               for alias in node.names}

    def module_of(owner):  # `source` or `self.protocol`
        if isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name) \
                and owner.value.id == "self":
            return owner.attr
        return owner.id if isinstance(owner, ast.Name) else None

    reads = {(module_of(node.value), node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and module_of(node.value) in modules}
    assert {module for module, _ in reads} == modules
    assert [f"{module}.{name}" for module, name in sorted(reads)
            if not hasattr(importlib.import_module(f"keyshare.{module}"), name)] == []


def test_code_line_rule():
    # tools/code_lines.py counts lines with code tokens; comments, blank
    # lines and docstrings do not count, and a string counts every line
    path = PACKAGE.parents[1] / "tools" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    text = ('"""Module\ndocstring."""\n\n# comment\ndef f(x):\n    """Doc."""\n'
            '    return ("a\\n"  # trailing\n            """b\nc""")\n')
    assert module.code_lines(text) == 4


def test_readme_quick_tour_runs():
    # README's python block is the library's quick tour: it must run as shown
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


# The boundary sweep: every scalar numeric parameter of every exported
# callable gets each value of BAD, every array parameter each value of
# ARRAY_BAD as its last entry, and every sequence checked entry by entry
# each value of BAD as its last entry; every array or sequence parameter
# also gets each value of WHOLE_BAD in place of the whole sequence.
# Each case raises a ValidationError that names the parameter, unless LISTED
# says otherwise and why.
BAD = {"nan": math.nan, "+inf": math.inf, "-inf": -math.inf, "-1": -1, "True": True,
       "1.5": 1.5, "'1'": "1"}
ARRAY_BAD = {"nan": math.nan, "'1'": "1"}
WHOLE_BAD = {"0.5": 0.5, "None": None}
SPEC = DegradedSourceSpec(q=0.4, p=(0.2, 0.3))
GAME = value_function(SPEC)
RATES = tuple(shapley_from_game(GAME))
CONFIG = {"n": 8, "b": 2, "target": (0.1, 0.1), "epsilon": 0.05, "seed": 3, "coalition": 1}


class Entry(NamedTuple):
    """A callable's valid arguments, and the text a ValidationError must
    hold for each parameter the sweep fills: scalar (each BAD value),
    array (each ARRAY_BAD value as its last entry) or entries (each BAD
    value as its last entry).  An array or entries parameter given a
    WHOLE_BAD value must be named by the same text, or by its text in
    whole where that differs.  The other arguments are objects the
    package built and checked."""

    base: dict
    scalar: dict = {}
    array: dict = {}
    entries: dict = {}
    whole: dict = {}


ENTRIES = {
    "binary_entropy": Entry({"p": 0.2}, {"p": "p must"}),
    "DegradedSourceSpec": Entry({"q": 0.4, "p": (0.2, 0.3), "levels": ((1,), (2,))},
                                {"q": "'q' must"}, entries={"p": "p[1]", "levels": "levels"},
                                whole={"p": "'p' must"}),
    "JointSource": Entry({"num_agents": 1, "prob": np.full((2, 2), 0.25)},
                         {"num_agents": "'num_agents'"}, {"prob": "probability table"}),
    "entropy": Entry({"src": SPEC, "a": 0b10, "c": 0b1}, {"a": "a must", "c": "c must"}),
    "mutual_information": Entry({"src": SPEC, "a": 0b10, "b": 0b1, "c": 0},
                                {"a": "a must", "b": "b must", "c": "c must"}),
    "verify_markov": Entry({"src": JointSource.from_spec(SPEC), "tol": 1e-10}, {"tol": "tol"}),
    "CoalitionGame": Entry({"num_agents": 2, "values": [0.0, 0.1, 0.1, 0.3]},
                           {"num_agents": "'L'"}, {"values": "'v'"}),
    "value_function": Entry({"src": SPEC}),
    "clearance_level_games": Entry({"src": SPEC, "levels": ((1,), (2,))},
                                   entries={"levels": "levels"}),
    "core_bounds": Entry({"game": GAME}),
    "core_contains": Entry({"game": GAME, "rates": RATES, "tol": 1e-9}, {"tol": "tol"},
                           {"rates": "rates"}),
    "is_superadditive": Entry({"game": GAME, "tol": 1e-9}, {"tol": "tol"}),
    "is_supermodular": Entry({"game": GAME, "tol": 1e-9}, {"tol": "tol"}),
    "shapley_from_game": Entry({"game": GAME}),
    "shapley_closed_form": Entry({"src": SPEC}),
    "nucleolus": Entry({"game": GAME}),
    "prekernel_gap": Entry({"game": GAME, "rates": RATES}, array={"rates": "rates"}),
    "brute_force_nucleolus": Entry({"game": GAME, "grid_step": 0.01}, {"grid_step": "grid_step"}),
    "core_polytope_vertices": Entry({"game": value_function(DegradedSourceSpec(
        q=0.4, p=(0.2, 0.27, 0.25)))}),
    "construct_profile": Entry({"theta": 0.1, "n": 8}, {"theta": "theta", "n": "block length N"}),
    "entropy_profile_exact": Entry({"theta": 0.1, "n": 8},
                                   {"theta": "theta", "n": "block length N"}),
    "entropy_profile_mc": Entry({"theta": 0.1, "n": 8, "num_samples": 1000, "seed": 0},
                                {"theta": "theta", "n": "block length N",
                                 "num_samples": "num_samples",
                                 "seed": "seed"}),
    "build_index_sets": Entry({"profile": entropy_profile_exact(0.1, 4)}),
    "polar_transform": Entry({"x": np.zeros(4, np.uint8)}, array={"x": None},
                             whole={"x": "input x"}),
    "sc_decode": Entry({"known_mask": np.zeros(4, bool), "known_values": np.zeros((2, 4), np.uint8),
                        "y": np.zeros((2, 4), np.uint8), "crossover": 0.2},
                       {"crossover": "crossover"},
                       {"known_mask": None, "known_values": "known_values", "y": "y must"},
                       whole={"known_mask": "known_mask"}),
    "ProtocolConfig": Entry(CONFIG, {"n": "block length N", "b": "block count B",
                                     "epsilon": "epsilon", "seed": "seed",
                                     "coalition": "coalition"},
                            entries={"target": "target rates"}),
    "ToeplitzHash": Entry({"bits": np.ones(7, np.uint8), "n_in": 4, "r_out": 4},
                          {"n_in": "n_in", "r_out": "r_out"}, {"bits": "bits"}),
    # a route, not an export (ROUTES)
    "key_lengths_from_allocation": Entry({"target": [0.5], "n": 16, "b": 4, "epsilon": 0.05},
                                         {"n": "block length N", "b": "block count B",
                                          "epsilon": "epsilon"},
                                         entries={"target": "target rates"}),
    "leakage_bound": Entry({"lengths": [1.0], "floors": [0.0, 2.0]},
                           array={"lengths": "lengths", "floors": "floors"}),
    "run_protocol": Entry({"spec": SPEC, "cfg": ProtocolConfig(**CONFIG), "runs": 1},
                          {"runs": "runs"}),
    "sample_hash": Entry({"seed": 1, "n_in": 4, "r_out": 2},
                         {"seed": "seed", "n_in": "n_in", "r_out": "r_out"}),
    "empirical_secrecy_check": Entry({"q": 0.4, "p": (0.2,), "n": 2, "r": (1,)},
                                     {"q": "q must", "n": "block length N"},
                                     entries={"p": "p[0]", "r": "key length"},
                                     whole={"p": "p must"}),
    "toeplitz_collision_rate": Entry({"n": 3, "r": 1}, {"n": "n must", "r": "r must"}),
}
# callables the sweep reaches through a route rather than an export: an
# allocation's key lengths are its ProtocolConfig's key_lengths(), and the
# case ids keep the name of the function that once computed them
ROUTES = {"key_lengths_from_allocation": lambda target, n, b, epsilon: ProtocolConfig(
    n=n, b=b, target=target, epsilon=epsilon).key_lengths()}
# exported dataclasses that hold what a computation produced; like the
# objects passed to the callables above, the package fills them, and they
# check nothing
RECORDS = {"EntropyProfile", "PolarIndexSets", "NucleolusTrace", "KeyMaterial", "Transcript"}


def _returns(check=lambda out: True):
    def expect(call):
        assert check(call())
    return expect


LISTED = {
    ("binary_entropy", "p", "-1"): (_returns(lambda h: h == 0.0),
                                   "H_b is 0 at the endpoints and beyond them"),
    ("binary_entropy", "p", "1.5"): (_returns(lambda h: h == 0.0),
                                    "H_b is 0 at the endpoints and beyond them"),
    ("core_contains", "rates", "nan"): (_returns(lambda out: out == (False, GAME.full_mask)),
                                        "non-finite rates are never in the core; the grand "
                                        "coalition is the efficiency witness"),
    **{("polar_transform", "x", label): (_returns(),
                                         "the transform casts its input to uint8 and transforms "
                                         "any byte, without a 0/1 pass on the decode path")
       for label in ARRAY_BAD},
    **{("sc_decode", "known_mask", label): (_returns(),
                                            "known_mask is read as a bool mask: any nonzero "
                                            "entry marks a known index")
       for label in ARRAY_BAD},
    ("DegradedSourceSpec", "levels", "None"): (_returns(lambda spec: spec.levels is None),
                                              "None is the default: no clearance levels"),
    # 1.5 lies in the range [0, inf) or (0, inf) of these parameters
    **{(name, param, "1.5"): (_returns(), "in range")
       for name, param in (("verify_markov", "tol"), ("core_contains", "tol"),
                           ("is_superadditive", "tol"), ("is_supermodular", "tol"),
                           ("brute_force_nucleolus", "grid_step"), ("ProtocolConfig", "target"))},
}


def _with_last_entry(values, value):
    a = np.array(values, dtype=object)
    a.flat[-1] = value
    return np.array(a.tolist()) if isinstance(values, np.ndarray) else type(values)(a.tolist())


def _with_last(entries, value):
    *head, last = entries
    return type(entries)([*head, _with_last(last, value) if isinstance(last, tuple) else value])


def _callable(name):
    return ROUTES.get(name) or getattr(keyshare, name)


def _sweep_cases():
    for name, entry in ENTRIES.items():
        for param in entry.scalar:
            yield from ((name, "scalar", param, label) for label in BAD)
        for param in entry.array:
            yield from ((name, "array", param, label) for label in ARRAY_BAD)
        for param in entry.entries:
            yield from ((name, "entries", param, label) for label in BAD)
        for param in {**entry.array, **entry.entries}:
            yield from ((name, "whole", param, label) for label in WHOLE_BAD)


def test_sweep_covers_every_export():
    errors = {n for n in EXPORTED if isinstance(getattr(keyshare, n), type)
              and issubclass(getattr(keyshare, n), Exception)}
    assert set(ENTRIES) == EXPORTED - errors - RECORDS | set(ROUTES)
    assert not EXPORTED & set(ROUTES)
    for name, entry in ENTRIES.items():
        params = set(inspect.signature(_callable(name)).parameters)
        filled = {*entry.scalar, *entry.array, *entry.entries}
        assert set(entry.base) == params and filled <= params, name
        assert set(entry.whole) <= {*entry.array, *entry.entries}, name
    assert set(LISTED) <= {(name, param, label) for name, _, param, label in _sweep_cases()}


@pytest.mark.parametrize("name, kind, param, label", list(_sweep_cases()),
                         ids=lambda v: str(v))
def test_boundary_sweep(name, kind, param, label):
    entry = ENTRIES[name]
    kwargs = dict(entry.base)
    if kind == "scalar":
        kwargs[param] = BAD[label]
    elif kind == "array":
        kwargs[param] = _with_last_entry(kwargs[param], ARRAY_BAD[label])
    elif kind == "entries":
        kwargs[param] = _with_last(kwargs[param], BAD[label])
    else:
        kwargs[param] = WHOLE_BAD[label]

    def call():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return _callable(name)(**kwargs)

    if (name, param, label) in LISTED:
        LISTED[name, param, label][0](call)
        return
    with pytest.raises(ValidationError) as info:
        call()
    text = (entry.whole.get(param) or {**entry.array, **entry.entries}[param] if kind == "whole"
            else getattr(entry, kind)[param])
    assert text in str(info.value)


def test_probability_table_refuses_strings_that_sum_to_one():
    # the sweep's string entry already breaks the sum; this one does not
    with pytest.raises(ValidationError, match="probability table must hold only real numbers"):
        JointSource(num_agents=1, prob=[[0.25, 0.25], [0.25, "0.25"]])


# numpy reads a boolean among numbers as 0 or 1; each parameter that reals
# reads refuses one as its last entry, nested too, and names itself
@pytest.mark.parametrize("name, param, named", [
    ("CoalitionGame", "values", "game field 'v'"), ("core_contains", "rates", "rates"),
    ("prekernel_gap", "rates", "rates"), ("JointSource", "prob", "probability table"),
    ("leakage_bound", "lengths", "lengths"), ("leakage_bound", "floors", "floors")])
def test_real_lists_refuse_a_boolean_entry(name, param, named):
    kwargs = ({"lengths": [1.0, 2.0], "floors": [0.0, 5.0, 5.0, 9.0]} if name == "leakage_bound"
              else ENTRIES[name].base)
    kwargs = {**kwargs, param: _with_last_entry(np.asarray(kwargs[param]).tolist(), True)}
    with pytest.raises(ValidationError, match=f"{named} must hold only real numbers"):
        getattr(keyshare, name)(**kwargs)


def test_boolean_entries_are_refused_where_numpy_reads_numbers():
    # each of these used to pass: the boolean read as 1 or 0
    with pytest.raises(ValidationError, match="lengths"):
        keyshare.leakage_bound([True, 2], [0.0, 5, 5, 9])
    with pytest.raises(ValidationError, match="probability table"):
        JointSource(1, [[0.25, 0.25], [0.5, False]])
    with pytest.raises(ValidationError, match="'v'"):
        keyshare.CoalitionGame(2, [0.0, True, 0.1, 1.3])
    # an array is judged by its dtype: the package's own arrays pay no scan
    with pytest.raises(ValidationError, match="bool entries"):
        keyshare.CoalitionGame(1, np.array([False, True]))


def test_real_arrays_refuse_ragged_nesting():
    # numpy raises its own ValueError on this before any dtype is known
    with pytest.raises(ValidationError, match="game field 'v' must hold only real numbers"):
        keyshare.CoalitionGame(num_agents=1, values=[0.0, [0.5, 0.5]])


def test_real_refuses_ints_past_double_range():
    # they pass a range test with an infinite bound, and math.isfinite
    # raises OverflowError on them
    for value in (10 ** 400, -(10 ** 400)):
        with pytest.raises(ValidationError, match="tol"):
            is_supermodular(GAME, tol=value)
        with pytest.raises(ValidationError, match="target rates"):
            ProtocolConfig(**{**CONFIG, "target": (0.1, value)})
