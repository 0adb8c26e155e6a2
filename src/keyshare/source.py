"""Discrete memoryless sources for many-to-one key generation.

The workhorse model is the binary degraded family: a base-station bit X0
with P(X0=1) = q, and per-agent observations X_l = X0 xor B_l where the
B_l are independent Bernoulli(p_l).  General joint tables are supported
for validation.

Every entropy and mutual information is a lookup into one cached table
per source, its entropies (the entropy of every axis subset):
mutual_information(src, a, b, c) gives I(A ; B | C) and entropy(src, a, c)
gives H(A | C), each on axis bitmasks, scalar or array.  A
DegradedSourceSpec is itself a source: its table is filled from the
family's product form on first use and cached on the spec, so every
reader of one spec shares one table.  Only a dense JointSource (hand
built, or the oracle JointSource.from_spec) marginalises a joint table.

Conventions, fixed repo-wide:
  * agent l (1-based) corresponds to bit (l-1) of a coalition bitmask;
  * axis 0 of the probability table is X0, axis l is agent l;
  * an axis bitmask has bit a for axis a, so coalition S maps to S << 1
    and X0 is bit 0;
  * all entropies are base-2, 0*log(0) = 0.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (CapacityError, ConsistencyError, ValidationError, bitmask, integer, real,
                     reals, sequence)

MAX_TABLE_AGENTS = 20  # largest L of an entropy table or of a game file's value table
# largest L of a dense JointSource: its entropy table sums out every axis
# subset, 3^(L+1) cells in all: value_function on one takes about 5 s at
# L=16 on 2 vCPUs
MAX_DENSE_AGENTS = 16
NEG_ENTROPY_FLOOR = -1e-12
LOW_BLOCK_AGENTS = 9  # agents in the vectorised block of the product form


def binary_entropy(p: float) -> float:
    """H_b(p) in bits; 0 at the endpoints and beyond them.  p must be a
    finite real: NaN lies on neither side of an endpoint."""
    p = real(p, "p", -math.inf)
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))


def _read_json_object(path: str, what: str, fields: Sequence[str]) -> dict:
    """Parse a JSON object file that holds no field outside fields; any
    failure is a ValidationError naming the file, and an unknown field is
    named too (a misspelt optional field would otherwise be ignored)."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} file {path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:  # includes JSONDecodeError, bad bytes
        raise ValidationError(f"{what} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"{what} file {path} must hold a JSON object")
    unknown = sorted(set(raw) - set(fields))
    if unknown:
        raise ValidationError(f"{what} file {path} has unknown field(s) "
                              f"{', '.join(map(repr, unknown))}; expected only "
                              f"{', '.join(map(repr, fields))}")
    return raw


def _check_table_agents(count: int) -> None:
    """Raise CapacityError when a spec lists more than MAX_TABLE_AGENTS
    crossovers."""
    if count > MAX_TABLE_AGENTS:
        raise CapacityError(f"entropy table limited to L <= {MAX_TABLE_AGENTS}, got L={count}")


def _level_partition(levels, num_agents: int, name: str = "levels"
                     ) -> tuple[tuple[int, ...], ...]:
    """levels as tuples of int agent ids, after checking that they partition
    agents 1..num_agents into nonempty groups.  An id is any integral real
    (2.0 is agent 2), never a boolean."""
    for i, lev in enumerate(sequence(levels, name)):
        sequence(lev, f"{name}[{i}]")
    for a in (a for lev in levels for a in lev):
        if (isinstance(a, (bool, np.bool_)) or not isinstance(a, numbers.Real)
                or not (isinstance(a, numbers.Integral) or float(a).is_integer())):
            raise ValidationError(f"{name} must hold integer agent ids, got {a!r}")
    out = tuple(tuple(int(a) for a in lev) for lev in levels)
    if sorted(a for lev in out for a in lev) != list(range(1, num_agents + 1)) or not all(out):
        raise ValidationError(f"{name} must partition agents 1..{num_agents} into nonempty "
                              f"groups, got {levels}")
    return out


@dataclass(frozen=True)
class DegradedSourceSpec:
    """Parameters of the binary degraded family, and its source.

    q is P(X0 = 1); p holds one crossover probability per agent; levels,
    when given, partitions agents 1..L into clearance levels, highest
    clearance first.  The spec is the source that the game, allocation
    and protocol code read: its agents are conditionally independent
    given X0 by construction, and its entropy table is built from the
    product form on first use and cached.  At most MAX_TABLE_AGENTS
    agents, so that table (2^(L+1) floats) stays in memory.
    """

    q: float
    p: tuple[float, ...]
    levels: Optional[tuple[tuple[int, ...], ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "q", real(self.q, "spec field 'q'", high=1.0, open=True))
        # the length guards come first, so an oversized p is refused unread
        p = tuple(sequence(self.p, "spec field 'p'"))
        if not p:
            raise ValidationError("spec field 'p' must list at least one crossover probability")
        _check_table_agents(len(p))
        object.__setattr__(self, "p", tuple(real(pl, f"spec field 'p[{i}]'", high=1.0, open=True)
                                            for i, pl in enumerate(p)))
        if self.levels is not None:
            object.__setattr__(self, "levels", _level_partition(self.levels, self.num_agents,
                                                                "spec field 'levels'"))

    @property
    def num_agents(self) -> int:
        return len(self.p)

    @property
    def full_mask(self) -> int:
        return (1 << self.num_agents) - 1

    @functools.cached_property
    def entropies(self) -> np.ndarray:
        """JointSource.entropies of the spec's joint table, without building it.

        Given X0 the observations are independent, so every mask holding X0
        has H(X0, X_T) = h(q) + sum_{l in T} h(p_l).  Without X0,
        H(X_T) = -sum f log2 f over the values x_T, with the mixture weight
        f = q prod P(x_l | X0 = 1) + (1 - q) prod P(x_l | X0 = 0): each
        agent is absent, 0 or 1 in one of 3^L patterns.  The first
        LOW_BLOCK_AGENTS agents form one vectorised block, a depth-first
        walk covers the rest, and the f log2 f terms are folded onto
        observed-agent masks.
        """
        k = min(self.num_agents, LOW_BLOCK_AGENTS)
        block_a, block_b = _patterns(self.p[:k])
        # every leaf of the walk reuses these 3^k-float buffers: fresh ones
        # would each be mapped from the OS and faulted in again
        f, terms = np.empty_like(block_a), np.empty_like(block_a)
        positive = np.empty(block_a.shape, dtype=bool)

        def walk(a: float, b: float, top: int) -> np.ndarray:
            # sum f log2 f onto the masks of agents 0..top-1
            if top == k:
                np.multiply(a, block_a, out=f)
                np.multiply(b, block_b, out=terms)
                np.add(f, terms, out=f)
                np.greater(f, 0, out=positive)
                terms.fill(0.0)
                np.log2(f, out=terms, where=positive)
                np.multiply(terms, f, out=terms)
                return _fold(terms, k)
            p = self.p[top - 1]
            return np.concatenate([walk(a, b, top - 1), walk(a * p, b * (1.0 - p), top - 1)
                                   + walk(a * (1.0 - p), b * p, top - 1)])

        table = np.empty(2 << self.num_agents)
        table[0::2] = -walk(self.q, 1.0 - self.q, self.num_agents)
        table[1::2] = binary_entropy(self.q) + coalition_sums(
            [binary_entropy(pl) for pl in self.p])
        table[0] = 0.0
        table.flags.writeable = False
        return table

    @classmethod
    def from_json(cls, path: str) -> "DegradedSourceSpec":
        """Read a spec file: {"q": real, "p": [...], "levels": optional [[ids]...]}.
        The constructor checks every field, as it does any caller's: a
        missing q or p reads as None and is refused by name."""
        raw = _read_json_object(path, "spec", ("q", "p", "levels"))
        return cls(q=raw.get("q"), p=raw.get("p"), levels=raw.get("levels"))

    def to_json(self) -> dict:
        out = {"q": self.q, "p": list(self.p)}
        if self.levels is not None:
            out["levels"] = [list(g) for g in self.levels]
        return out


@dataclass(frozen=True)
class JointSource:
    """Dense joint distribution over (X0, X1..XL).

    prob has one binary axis per component in that order.  The table is
    copied on construction and read-only, so the cached entropy table
    always describes it.  From a spec, it is the oracle of the spec's table.
    At most MAX_DENSE_AGENTS agents.
    """

    num_agents: int
    prob: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "num_agents",
                           integer(self.num_agents, "source field 'num_agents'", positive=True))
        if self.num_agents > MAX_DENSE_AGENTS:
            raise CapacityError(f"dense joint table limited to L <= {MAX_DENSE_AGENTS}, "
                                f"got L={self.num_agents}")
        object.__setattr__(self, "prob", np.array(reals(self.prob, "probability table")))
        self.prob.flags.writeable = False
        expected_dims = self.num_agents + 1
        if self.prob.ndim != expected_dims:
            raise ValidationError(
                f"probability table has {self.prob.ndim} axes, expected {expected_dims}"
            )
        if not np.all(np.isfinite(self.prob)):
            raise ValidationError("probability table has non-finite entries")
        if np.any(self.prob < 0):
            raise ValidationError("probability table has negative entries")
        total = float(self.prob.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"probability table sums to {total}, expected 1 within 1e-12")

    @classmethod
    def from_spec(cls, spec: DegradedSourceSpec) -> "JointSource":
        """The dense joint table of the degraded family,
        p(x0, x1..xL) = P(X0=x0) * prod_l P(B_l = x_l xor x0)."""
        L = spec.num_agents
        table = np.array([1.0 - spec.q, spec.q]).reshape((2,) + (1,) * L)
        x0 = np.arange(2).reshape((2,) + (1,) * L)
        for l, pl in enumerate(spec.p):
            xl = np.arange(2).reshape((1,) * (l + 1) + (2,) + (1,) * (L - l - 1))
            table = table * np.where((xl ^ x0) == 1, pl, 1.0 - pl)
        return cls(num_agents=L, prob=table)

    @property
    def full_mask(self) -> int:
        return (1 << self.num_agents) - 1

    @functools.cached_property
    def entropies(self) -> np.ndarray:
        """Entropy (bits) of the marginal on every axis subset, read-only.

        Indexed by axis bitmask: bit 0 is X0, bit l agent l.
        This is the route for any joint table, and the oracle for the
        product form of DegradedSourceSpec: a depth-first marginalisation in
        which each marginal is its parent's with one more axis summed out,
        in increasing axis order, so every subset is reached once and only
        one chain of marginals (under twice the joint table) is alive.
        """
        ndim = self.prob.ndim
        table = np.empty(1 << ndim)

        def visit(marg: np.ndarray, keep: int, first: int) -> None:
            nz = marg[marg > 0]
            table[keep] = -(nz * np.log2(nz)).sum()
            for axis in range(first, ndim):
                visit(marg.sum(axis=axis, keepdims=True), keep & ~(1 << axis), axis + 1)

        visit(self.prob, (1 << ndim) - 1, 0)
        table[0] = 0.0  # nothing observed; the total mass is 1 only to 1e-12
        table.flags.writeable = False
        return table


def coalition_sums(rates: Sequence[float]) -> np.ndarray:
    """sum_{i in S} rates_i for every bitmask S, by subset dynamic
    programming; leading axes of rates are a batch of allocations."""
    r = np.asarray(rates, dtype=float)
    L = r.shape[-1]
    sums = np.zeros(r.shape[:-1] + (1 << L,))
    for l in range(L):
        bit = 1 << l
        sums[..., bit:2 * bit] = sums[..., :bit] + r[..., l, None]
    return sums


def _patterns(p: Sequence[float]):
    """(given1, given0) over the 3^n absent/0/1 patterns of agents with
    crossovers p: the probability of the observed values given X0 = 1 and
    given X0 = 0.  Agent j is digit j of the pattern index (weight 3^j),
    absent first."""
    a, b = np.ones(1), np.ones(1)
    for pj in p:
        # x_j = 0 flips X0 = 1 (probability pj) and keeps X0 = 0 (1 - pj)
        a = np.concatenate([a, a * pj, a * (1.0 - pj)])
        b = np.concatenate([b, b * (1.0 - pj), b * pj])
    return a, b


def _fold(terms: np.ndarray, n: int) -> np.ndarray:
    """Sum per-pattern terms over the 3^n patterns of n agents onto the 2^n
    masks of observed agents, one agent at a time, so each mask's sum is a
    pairwise tree."""
    for i in range(n):  # the most significant digit first
        terms = terms.reshape(1 << i, 3, -1)
        terms = np.concatenate([terms[:, :1], terms[:, 1:2] + terms[:, 2:]], axis=1)
    return terms.reshape(-1)


def build_degraded_source(spec: DegradedSourceSpec) -> DegradedSourceSpec:
    """The source of a spec: the spec itself, which caches its entropy table.

    Not exported, and no module of the package calls it: the benchmark's
    worker (perfbench/worker.py) still does, and ROADMAP item 2 deletes it
    once the worker passes the spec."""
    return spec


def _clamp(value, what: str):
    """Clamp tiny negative round-off (float or array) to zero; raise below the floor."""
    if np.any(value < NEG_ENTROPY_FLOOR):
        raise ConsistencyError(f"{what} evaluated to {np.min(value)}, below the -1e-12 floor")
    return np.maximum(value, 0.0)


def mutual_information(src: JointSource | DegradedSourceSpec, a, b, c=0):
    """I(A ; B | C) in bits from the entropy table, clamped to zero from
    tiny negative round-off.  a, b, c are axis bitmasks (ints or int
    arrays): bit 0 is X0, bit l agent l; a and b are disjoint."""
    axes = src.num_agents + 1
    a, b, c = bitmask(a, axes, "a"), bitmask(b, axes, "b"), bitmask(c, axes, "c")
    if np.any(a & b):
        raise ValidationError("a and b overlap in a mutual-information query")
    h = src.entropies
    return _clamp(h[a | c] + h[b | c] - h[a | b | c] - h[c], "mutual information")


def entropy(src: JointSource | DegradedSourceSpec, a, c=0):
    """H(A | C) in bits on the same axis bitmasks as mutual_information."""
    a, c = bitmask(a, src.num_agents + 1, "a"), bitmask(c, src.num_agents + 1, "c")
    h = src.entropies
    return _clamp(h[a | c] - h[c], "conditional entropy")


def _member_masks(members: Sequence[int]) -> np.ndarray:
    """Coalition bitmask of every submask over a list of 0-based agents:
    entry sub holds members[j] for each set bit j, the last entry them all."""
    masks = np.zeros(1 << len(members), dtype=np.int64)
    for j, l in enumerate(members):
        masks[1 << j:2 << j] = masks[:1 << j] | (1 << l)
    return masks


def verify_markov(src: JointSource, tol: float = 1e-10) -> bool:
    """Check that the agents are mutually independent given X0.

    True iff 3 * sum_x |p(x | x0) - prod_l p(x_l | x0)| <= tol everywhere
    p(x0) > 0: one L1 distance d between the conditional joint and the
    product Q of its single-agent marginals, in O(L 2^L).  For disjoint
    coalitions S, T, |p(x_S, x_T | x0) - p(x_S | x0) p(x_T | x0)| is at most
    |P_ST - Q_ST| + |Q_S - P_S| + |Q_T - P_T| <= 3d, so every such pair
    lies within tol.  The converse does not hold: a table whose pairs are
    all within tol can still be refused, mostly when its deviations are
    near tol (per-cell noise of 1e-13 to 1e-10 at tol = 1e-10).
    """
    real(tol, "tol")
    L = src.num_agents
    for cond in src.prob:
        mass = cond.sum()
        if mass <= 0:
            continue
        cond = cond / mass
        product = np.ones(())
        for l in range(L):
            product = np.multiply.outer(
                product, cond.sum(axis=tuple(a for a in range(L) if a != l)))
        if 3.0 * np.abs(cond - product).sum() > tol:
            return False
    return True
