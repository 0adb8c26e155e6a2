import ast
import importlib
import importlib.util
import inspect
import math
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import keyshare
from keyshare import (DegradedSourceSpec, JointSource, ProtocolConfig, ValidationError,
                      build_degraded_source, entropy_profile_exact, is_supermodular,
                      shapley_from_game, value_function)

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
    # package (a def or class line names its object without using it)
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
    assert EXPORTED, "no exports parsed"
    assert sorted(EXPORTED - used - API_ONLY) == []
    assert API_ONLY <= EXPORTED - used


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
SOURCE = build_degraded_source(SPEC)
GAME = value_function(SOURCE)
RATES = tuple(shapley_from_game(GAME))
CONFIG = {"n": 8, "b": 2, "target": (0.1, 0.1), "epsilon": 0.05, "seed": 3, "coalition": 1,
          "onset_risk": 1e-4}


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
    "build_degraded_source": Entry({"spec": SPEC}),
    "entropy": Entry({"src": SOURCE, "a": 0b10, "c": 0b1}, {"a": "a must", "c": "c must"}),
    "mutual_information": Entry({"src": SOURCE, "a": 0b10, "b": 0b1, "c": 0},
                                {"a": "a must", "b": "b must", "c": "c must"}),
    "verify_markov": Entry({"src": JointSource.from_spec(SPEC), "tol": 1e-10}, {"tol": "tol"}),
    "CoalitionGame": Entry({"num_agents": 2, "values": [0.0, 0.1, 0.1, 0.3]},
                           {"num_agents": "'L'"}, {"values": "'v'"}),
    "value_function": Entry({"src": SOURCE}),
    "clearance_level_games": Entry({"src": SOURCE, "levels": ((1,), (2,))},
                                   entries={"levels": "levels"}),
    "core_bounds": Entry({"game": GAME}),
    "core_contains": Entry({"game": GAME, "rates": RATES, "tol": 1e-9}, {"tol": "tol"},
                           {"rates": "rates"}),
    "is_superadditive": Entry({"game": GAME, "tol": 1e-9}, {"tol": "tol"}),
    "is_supermodular": Entry({"game": GAME, "tol": 1e-9}, {"tol": "tol"}),
    "shapley_from_game": Entry({"game": GAME}),
    "shapley_closed_form": Entry({"src": SOURCE}),
    "nucleolus": Entry({"game": GAME}),
    "prekernel_gap": Entry({"game": GAME, "rates": RATES}, array={"rates": "rates"}),
    "brute_force_nucleolus": Entry({"game": GAME, "grid_step": 0.01}, {"grid_step": "grid_step"}),
    "core_polytope_vertices": Entry({"game": value_function(build_degraded_source(
        DegradedSourceSpec(q=0.4, p=(0.2, 0.27, 0.25))))}),
    "lp_solve": Entry({"c": [1.0], "a_ub": [[-1.0]], "b_ub": [0.0], "a_eq": [[1.0]],
                       "b_eq": [1.0], "bounds": [(0.0, 2.0)]},
                      array={k: k for k in ("c", "a_ub", "b_ub", "a_eq", "b_eq", "bounds")}),
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
                                     "coalition": "coalition", "onset_risk": "onset_risk"},
                            entries={"target": "target rates"}),
    "ToeplitzHash": Entry({"bits": np.ones(7, np.uint8), "n_in": 4, "r_out": 4},
                          {"n_in": "n_in", "r_out": "r_out"}, {"bits": "bits"}),
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
    ("lp_solve", "bounds", "None"): (_returns(lambda out: out[0] == "optimal"),
                                     "None is the default: every variable free"),
    # 1.5 lies in the range [0, inf) or (0, inf) of these parameters
    **{(name, param, "1.5"): (_returns(), "in range")
       for name, param in (("verify_markov", "tol"), ("core_contains", "tol"),
                           ("is_superadditive", "tol"), ("is_supermodular", "tol"),
                           ("brute_force_nucleolus", "grid_step"),
                           ("ProtocolConfig", "onset_risk"), ("ProtocolConfig", "target"))},
}


def _with_last_entry(values, value):
    a = np.array(values, dtype=object)
    a.flat[-1] = value
    return np.array(a.tolist()) if isinstance(values, np.ndarray) else type(values)(a.tolist())


def _with_last(entries, value):
    *head, last = entries
    return type(entries)([*head, _with_last(last, value) if isinstance(last, tuple) else value])


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
    assert set(ENTRIES) == EXPORTED - errors - RECORDS
    for name, entry in ENTRIES.items():
        params = set(inspect.signature(getattr(keyshare, name)).parameters)
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
            return getattr(keyshare, name)(**kwargs)

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


# a two-variable LP whose every array holds two or more numbers
LP = {"c": [1.0, 1.0], "a_ub": [[-1.0, 0.0], [0.0, -1.0]], "b_ub": [0.0, 0.0],
      "a_eq": [[1.0, 1.0], [1.0, -1.0]], "b_eq": [1.0, 0.0], "bounds": [(0.0, 2.0), (0.0, 2.0)]}


# numpy reads a boolean among numbers as 0 or 1; each parameter that reals
# reads refuses one as its last entry, nested too, and names itself
@pytest.mark.parametrize("name, param, named", [
    ("CoalitionGame", "values", "game field 'v'"), ("core_contains", "rates", "rates"),
    ("prekernel_gap", "rates", "rates"), ("JointSource", "prob", "probability table"),
    ("leakage_bound", "lengths", "lengths"), ("leakage_bound", "floors", "floors"),
    *(("lp_solve", k, f"linear program {k}") for k in LP)])
def test_real_lists_refuse_a_boolean_entry(name, param, named):
    kwargs = {"leakage_bound": {"lengths": [1.0, 2.0], "floors": [0.0, 5.0, 5.0, 9.0]},
              "lp_solve": LP}.get(name, ENTRIES[name].base)
    kwargs = {**kwargs, param: _with_last_entry(np.asarray(kwargs[param]).tolist(), True)}
    with pytest.raises(ValidationError, match=f"{named} must hold only real numbers"):
        getattr(keyshare, name)(**kwargs)


def test_boolean_entries_are_refused_where_numpy_reads_numbers():
    assert keyshare.lp_solve(**LP)[0] == "optimal"  # LP is valid without its boolean
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
    # numpy raises its own ValueError on these before any dtype is known
    with pytest.raises(ValidationError, match="linear program a_ub must hold only real numbers"):
        keyshare.lp_solve([1.0], a_ub=[[1.0], [1.0, 2.0]], b_ub=[1.0, 1.0])
    with pytest.raises(ValidationError, match="game field 'v' must hold only real numbers"):
        keyshare.CoalitionGame(num_agents=1, values=[0.0, [0.5, 0.5]])


@pytest.mark.parametrize("bounds", [[0.5], [None], [(0.0,)], [(0.0, 1.0, 2.0)]])
def test_lp_bounds_refuse_entries_that_are_not_pairs(bounds):
    # each used to raise numpy's or scipy's own TypeError or ValueError
    with pytest.raises(ValidationError, match="linear program bounds"):
        keyshare.lp_solve([1.0], bounds=bounds)


def test_real_refuses_ints_past_double_range():
    # they pass a range test with an infinite bound, and math.isfinite
    # raises OverflowError on them
    for value in (10 ** 400, -(10 ** 400)):
        with pytest.raises(ValidationError, match="tol"):
            is_supermodular(GAME, tol=value)
        with pytest.raises(ValidationError, match="target rates"):
            ProtocolConfig(**{**CONFIG, "target": (0.1, value)})
