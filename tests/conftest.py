import numpy as np
import pytest

from keyshare import DegradedSourceSpec, build_degraded_source, value_function

EXAMPLE2 = DegradedSourceSpec(q=0.40, p=(0.20, 0.27, 0.25))

# published reference values for the (0.40, 0.20, 0.27, 0.25) source,
# indexed by coalition bitmask (agent l <-> bit l-1)
EXAMPLE2_VALUES = {
    0b001: 0.17134,
    0b010: 0.08205,
    0b100: 0.10142,
    0b011: 0.28771,
    0b101: 0.31679,
    0b110: 0.20155,
    0b111: 0.46921,
}
SHAPLEY_INTERVALS = [(0.2165, 0.2166), (0.1142, 0.1143), (0.1384, 0.1385)]
NUCLEOLUS_INTERVALS = [(0.2109, 0.2110), (0.1172, 0.1173), (0.1410, 0.1411)]


@pytest.fixture(scope="session")
def example2_spec():
    return EXAMPLE2


@pytest.fixture(scope="session")
def example2_source():
    return build_degraded_source(EXAMPLE2)


@pytest.fixture(scope="session")
def example2_game(example2_source):
    return value_function(example2_source)


def brute_entropy(prob: np.ndarray, axes) -> float:
    """Independent entropy oracle: direct summation over an explicit marginal."""
    axes = tuple(sorted(axes))
    drop = tuple(a for a in range(prob.ndim) if a not in axes)
    marg = prob.sum(axis=drop) if drop else prob
    total = 0.0
    for value in marg.reshape(-1):
        if value > 0:
            total -= value * np.log2(value)
    return total


def random_degraded_spec(rng, num_agents: int) -> DegradedSourceSpec:
    q = float(rng.uniform(0.1, 0.9))
    p = tuple(float(rng.uniform(0.03, 0.47)) for _ in range(num_agents))
    return DegradedSourceSpec(q=q, p=p)
