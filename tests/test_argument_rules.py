"""Property test of the argument rules in `protoselect.errors`.

Every count and real argument in the table below refuses bools, floats where
an integer is due, strings, None where None is not valid, and values out of
range, each with InputError. In-range Python and numpy values are stored as
Python int and float. The examples are derandomized and capped so the test
runs the same way, and quickly, every time.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protoselect import (Dataset, InputError, KernelSpec, MeanMap, SolverConfig, SupportSet,
                         WeightVector)
from protoselect.oracle import (exhaustive_optimal, finite_difference_check,
                                identity_kernel_instance, random_gaussian_instance,
                                rsc_rsm_bounds, submodularity_ratio)
from protoselect.ranking import RankMatrix, export_graph, rank_sources
from protoselect.selectors import (SelectionConfig, criticisms, proto_dash, random_w,
                                   top_m_by_weight)
from helpers import gaussian_instance

RULES = settings(max_examples=40, derandomize=True, database=None, deadline=None)
N2, M = 6, 3  # the shared instance: six source rows, three prototypes


@functools.cache
def _instance():
    K, mu = gaussian_instance(np.random.default_rng(5), n1=5, n2=N2)
    result = proto_dash(K, mu, SelectionConfig(m=M))
    assert len(result.indices) == M
    return K, mu, result


def _datasets():
    rng = np.random.default_rng(7)
    return [Dataset(rng.normal(size=(4, 2)) + i) for i in range(3)]


def _rank_matrix():
    rank = np.array([[0, 1, 2], [1, 0, 2], [1, 2, 0]])
    return RankMatrix(names=("a", "b", "c"), objective=np.zeros((3, 3)), rank=rank)


def _rng():
    return np.random.default_rng(0)


# name: (call with the value, least, most, None is valid or refused by another rule)
COUNTS = {
    "SelectionConfig.m": (lambda v: SelectionConfig(m=v), 0, None, True),
    "SelectionConfig.seed": (lambda v: SelectionConfig(m=1, seed=v), 0, None, True),
    "SelectionConfig.oversample_factor": (
        lambda v: SelectionConfig(m=1, oversample_factor=v), 1, None, False),
    "SolverConfig.max_iterations": (lambda v: SolverConfig(max_iterations=v), 1, None, True),
    "MeanMap.n1": (lambda v: MeanMap(np.ones(2), n1=v), 1, None, False),
    "WeightVector.dimension": (lambda v: WeightVector.zeros(v), 0, None, False),
    "SupportSet.indices": (lambda v: SupportSet((v,)), 0, None, False),
    "proto_dash m": (lambda v: proto_dash(*_instance()[:2], SelectionConfig(m=v)), 0, N2, True),
    "random_w seed": (lambda v: random_w(*_instance()[:2], SelectionConfig(m=1, seed=v)),
                      0, None, True),
    "criticisms c": (lambda v: criticisms(_instance()[2], *_instance()[:2], v), 1, N2 - M, False),
    "top_m_by_weight m": (lambda v: top_m_by_weight(_instance()[2], v, *_instance()[:2]),
                          0, M, False),
    "exhaustive_optimal m": (lambda v: exhaustive_optimal(*_instance()[:2], v), 1, N2, False),
    "rsc_rsm_bounds k": (lambda v: rsc_rsm_bounds(_instance()[0], v), 1, N2, False),
    "submodularity_ratio r": (
        lambda v: submodularity_ratio(*_instance()[:2], SupportSet(), v), 1, None, False),
    "rank_sources m": (lambda v: rank_sources(_datasets(), v, KernelSpec(bandwidth=1.0)),
                       0, None, False),
    "rank_sources threads": (lambda v: rank_sources(_datasets(), 2, KernelSpec(bandwidth=1.0),
                                                    threads=v), 1, None, False),
    "export_graph top_t": (lambda v: export_graph(_rank_matrix(), v), 1, 2, False),
    "random_gaussian_instance max_n1": (
        lambda v: random_gaussian_instance(_rng(), max_n1=v), 2, None, False),
    "random_gaussian_instance max_n2": (
        lambda v: random_gaussian_instance(_rng(), max_n2=v), 2, None, False),
    "random_gaussian_instance max_m": (
        lambda v: random_gaussian_instance(_rng(), max_m=v), 1, None, False),
    "random_gaussian_instance dims": (
        lambda v: random_gaussian_instance(_rng(), dims=(v,)), 1, None, False),
    "identity_kernel_instance max_n2": (
        lambda v: identity_kernel_instance(_rng(), max_n2=v), 2, None, False),
    "identity_kernel_instance max_m": (
        lambda v: identity_kernel_instance(_rng(), max_m=v), 1, None, False),
}

# name: (call with the value, zero allowed, None is valid or refused by another rule)
REALS = {
    "SelectionConfig.epsilon": (lambda v: SelectionConfig(epsilon=v), False, True),
    "SolverConfig.kkt_tolerance": (lambda v: SolverConfig(kkt_tolerance=v), False, False),
    "KernelSpec.bandwidth": (lambda v: KernelSpec("gaussian", bandwidth=v), False, False),
    "KernelSpec.jitter": (lambda v: KernelSpec("linear", jitter=v), True, False),
    "finite_difference_check step": (
        lambda v: finite_difference_check(*_instance()[:2], WeightVector.zeros(N2), v),
        False, False),
    "random_gaussian_instance sigma low": (
        lambda v: random_gaussian_instance(_rng(), sigma_range=(v, 2.0)), False, False),
    "random_gaussian_instance sigma high": (
        lambda v: random_gaussian_instance(_rng(), sigma_range=(0.5, v)), False, False),
}

# A stored field, read back from what the call returns.
STORED_COUNTS = {
    "SelectionConfig.m": lambda made: made.m,
    "SelectionConfig.seed": lambda made: made.seed,
    "SelectionConfig.oversample_factor": lambda made: made.oversample_factor,
    "SolverConfig.max_iterations": lambda made: made.max_iterations,
    "MeanMap.n1": lambda made: made.n1,
    "WeightVector.dimension": lambda made: made.dimension,
    "SupportSet.indices": lambda made: made.indices[0],
}
STORED_REALS = {
    "SelectionConfig.epsilon": lambda made: made.epsilon,
    "SolverConfig.kkt_tolerance": lambda made: made.kkt_tolerance,
    "KernelSpec.bandwidth": lambda made: made.bandwidth,
    "KernelSpec.jitter": lambda made: made.jitter,
}

_WRONG_TYPES = st.one_of(
    st.booleans(),
    st.booleans().map(np.bool_),
    st.text(max_size=5),
    st.text(alphabet="0123456789", min_size=1, max_size=3),
)
_NUMPY_INTS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


def _bad_counts(least, most, none_ok):
    below = st.integers(max_value=least - 1)
    above = st.integers(min_value=most + 1) if most is not None else st.nothing()
    numpy_below = st.integers(min_value=-2 ** 63, max_value=least - 1).map(np.int64)
    none = st.nothing() if none_ok else st.none()
    return st.one_of(_WRONG_TYPES, none, st.floats(allow_nan=True), below, above, numpy_below)


def _bad_reals(allow_zero, none_ok):
    below = st.floats(max_value=0.0, exclude_max=allow_zero)
    none = st.nothing() if none_ok else st.none()
    return st.one_of(_WRONG_TYPES, none, below, below.map(np.float64),
                     st.sampled_from([np.nan, np.inf, -np.inf, np.float32(np.inf), 10 ** 400]),
                     st.integers(max_value=-1 if allow_zero else 0))


@pytest.mark.parametrize("name", sorted(COUNTS))
@RULES
@given(data=st.data())
def test_counts_refuse_everything_but_an_integer_in_range(name, data):
    call, least, most, none_ok = COUNTS[name]
    value = data.draw(_bad_counts(least, most, none_ok))
    with pytest.raises(InputError, match="integer|at least|at most|non-negative"):
        call(value)


@pytest.mark.parametrize("name", sorted(REALS))
@RULES
@given(data=st.data())
def test_reals_refuse_everything_but_a_finite_real_in_range(name, data):
    call, allow_zero, none_ok = REALS[name]
    value = data.draw(_bad_reals(allow_zero, none_ok))
    with pytest.raises(InputError, match="real number|range|positive|non-negative"):
        call(value)


@pytest.mark.parametrize("name", sorted(STORED_COUNTS))
@RULES
@given(data=st.data())
def test_counts_are_stored_as_python_ints(name, data):
    call, least, _, _ = COUNTS[name]
    value = data.draw(st.integers(min_value=least, max_value=least + 100))
    kind = data.draw(st.sampled_from((int,) + _NUMPY_INTS))
    stored = STORED_COUNTS[name](call(kind(value)))
    assert type(stored) is int and stored == value


@pytest.mark.parametrize("name", sorted(STORED_REALS))
@RULES
@given(data=st.data())
def test_reals_are_stored_as_python_floats(name, data):
    call, allow_zero, _ = REALS[name]
    value = data.draw(st.floats(min_value=0.0 if allow_zero else 1e-300, max_value=1e300,
                                exclude_min=not allow_zero))
    kind = data.draw(st.sampled_from((float, np.float64)))
    stored = STORED_REALS[name](call(kind(value)))
    assert type(stored) is float and stored == value
