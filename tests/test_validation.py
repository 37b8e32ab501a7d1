"""Malformed sizes and dimensions fail with InputError, never a raw TypeError or IndexError."""

import numpy as np
import pytest

from protoselect import (
    InputError,
    SolverConfig,
    SupportSet,
    WeightVector,
    gradient,
    kkt_residual,
    objective,
    solve_restricted,
)
from protoselect.oracle import exhaustive_optimal, rsc_rsm_bounds, submodularity_ratio
from protoselect.selectors import SelectionConfig, criticisms, proto_dash, top_m_by_weight
from helpers import gaussian_instance


@pytest.fixture
def instance(rng):
    K, mu = gaussian_instance(rng, n1=5, n2=6)
    return K, mu, proto_dash(K, mu, SelectionConfig(m=3))


@pytest.mark.parametrize(
    "call",
    [
        lambda K, mu, res: SelectionConfig(m=2.5),
        lambda K, mu, res: SelectionConfig(m=2.0),
        lambda K, mu, res: SelectionConfig(m=2, oversample_factor=1.5),
        lambda K, mu, res: SolverConfig(max_iterations=2.5),
        lambda K, mu, res: SupportSet((1.5,)),
        lambda K, mu, res: criticisms(res, K, mu, 1.5),
        lambda K, mu, res: top_m_by_weight(res, 1.5, K, mu),
        lambda K, mu, res: exhaustive_optimal(K, mu, 1.5),
        lambda K, mu, res: rsc_rsm_bounds(K, 1.5),
        lambda K, mu, res: submodularity_ratio(K, mu, SupportSet(), 1.5),
    ],
    ids=["m", "m_float_integral", "oversample_factor", "max_iterations", "support_index",
         "criticisms_c", "top_m", "exhaustive_m", "rsc_rsm_k", "submodularity_r"],
)
def test_non_integer_sizes_rejected(instance, call):
    with pytest.raises(InputError, match="integer"):
        call(*instance)


def test_numpy_integers_accepted(instance):
    K, mu, res = instance
    assert SelectionConfig(m=np.int64(2)).m == 2
    assert SupportSet((np.intp(4), 1)).indices == (4, 1)
    assert len(criticisms(res, K, mu, np.int32(2)).indices) == 2


@pytest.mark.parametrize(
    "call",
    [
        lambda K, mu: objective(WeightVector(SupportSet((7,)), np.ones(1), 8), K, mu),
        lambda K, mu: gradient(WeightVector(SupportSet((7,)), np.ones(1), 8), K, mu),
        lambda K, mu: gradient(WeightVector.zeros(4), K, mu),
        lambda K, mu: kkt_residual(WeightVector.zeros(6), K, mu, SupportSet((0, 6))),
        lambda K, mu: kkt_residual(WeightVector.zeros(8), K, mu, SupportSet((0,))),
        lambda K, mu: solve_restricted(K, mu, SupportSet((0, 4)), warm_start=WeightVector.zeros(2)),
    ],
    ids=["objective", "gradient", "gradient_empty_support", "kkt_index", "kkt_dimension",
         "warm_start"],
)
def test_mismatched_dimensions_rejected(rng, call):
    K, mu = gaussian_instance(rng, n1=5, n2=6)
    with pytest.raises(InputError):
        call(K, mu)
