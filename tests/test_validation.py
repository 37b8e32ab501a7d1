"""Malformed inputs fail with InputError, never a raw TypeError, ValueError or IndexError."""

import numpy as np
import pytest

from protoselect import (
    Dataset,
    InputError,
    KernelMatrix,
    KernelSpec,
    MeanMap,
    SolverConfig,
    SupportSet,
    WeightVector,
    gradient,
    kernel_eval,
    kkt_residual,
    objective,
    solve_restricted,
)
from protoselect.nnqp import gain_bounds
from protoselect.oracle import (exhaustive_optimal, finite_difference_check,
                                identity_kernel_instance, random_gaussian_instance,
                                rsc_rsm_bounds, submodularity_ratio)
from protoselect.ranking import RankMatrix, export_graph, rank_sources
from protoselect.selectors import (SelectionConfig, criticisms, proto_dash, random_w,
                                   top_m_by_weight)
from helpers import gaussian_instance


_SPEC = KernelSpec("gaussian", bandwidth=1.0)


def _datasets():
    rng = np.random.default_rng(7)
    return [Dataset(rng.normal(size=(5, 2)) + i) for i in range(3)]


def _result_on_four_rows():
    K, mu = gaussian_instance(np.random.default_rng(3), n1=5, n2=4)
    return proto_dash(K, mu, SelectionConfig(m=3))


def _rank_matrix():
    rank = np.array([[0, 1, 2], [1, 0, 2], [1, 2, 0]])
    return RankMatrix(names=("a", "b", "c"), objective=np.zeros((3, 3)), rank=rank)


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
        lambda K, mu, res: MeanMap(mu.entries, n1=1.5),
        lambda K, mu, res: export_graph(_rank_matrix(), top_t=1.5),
        lambda K, mu, res: rank_sources(_datasets(), m=2, spec=_SPEC, threads=2.5),
        lambda K, mu, res: random_w(K, mu, SelectionConfig(m=2, seed=1.5)),
        lambda K, mu, res: WeightVector.zeros(2.5),
        lambda K, mu, res: WeightVector(SupportSet((0,)), np.ones(1), 2.5).dense(),
    ],
    ids=["m", "m_float_integral", "oversample_factor", "max_iterations", "support_index",
         "criticisms_c", "top_m", "exhaustive_m", "rsc_rsm_k", "submodularity_r", "mean_map_n1",
         "export_top_t", "rank_threads", "random_w_seed", "weight_zeros_dimension",
         "weight_dimension"],
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
        lambda K, mu: top_m_by_weight(_result_on_four_rows(), 2, K, mu),
        lambda K, mu: gain_bounds(WeightVector.zeros(6), mu.entries[:3], K),
        lambda K, mu: gain_bounds(WeightVector.zeros(4), mu.entries, K),
    ],
    ids=["objective", "gradient", "gradient_empty_support", "kkt_index", "kkt_dimension",
         "warm_start", "top_m_result", "gain_bounds_gradient", "gain_bounds_dimension"],
)
def test_mismatched_dimensions_rejected(rng, call):
    K, mu = gaussian_instance(rng, n1=5, n2=6)
    with pytest.raises(InputError):
        call(K, mu)


@pytest.mark.parametrize("threads", [0, -1])
def test_rank_threads_below_one_rejected(threads):
    with pytest.raises(InputError, match="threads"):
        rank_sources(_datasets(), m=2, spec=_SPEC, threads=threads)


def test_negative_seed_rejected():
    with pytest.raises(InputError, match="seed"):
        SelectionConfig(m=2, seed=-1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: SelectionConfig(epsilon="0.1"),
        lambda: SolverConfig(kkt_tolerance="1e-8"),
        lambda: KernelSpec("gaussian", bandwidth="1.0"),
        lambda: KernelSpec("gaussian", bandwidth=1.0, jitter=[1e-10]),
        lambda: KernelSpec("linear", jitter=None),
    ],
    ids=["epsilon", "kkt_tolerance", "bandwidth", "jitter", "jitter_none"],
)
def test_non_numeric_reals_rejected(call):
    with pytest.raises(InputError, match="real number"):
        call()


def test_real_beyond_float_range_rejected():
    with pytest.raises(InputError, match="range"):
        SelectionConfig(epsilon=10 ** 400)


def test_non_numeric_dataset_rejected():
    with pytest.raises(InputError, match="real numbers"):
        Dataset(np.array([["a"]]))


@pytest.mark.parametrize(
    "call",
    [
        lambda: Dataset(np.array([[1.0 + 1.0j, 2.0]])),
        lambda: kernel_eval("a", "b", _SPEC),
        lambda: KernelMatrix(np.eye(2) * (1.0 + 1.0j), _SPEC),
        lambda: KernelMatrix([["a"]], _SPEC),
        lambda: MeanMap(np.ones(2) * (1.0 + 1.0j), n1=1),
        lambda: MeanMap(["a"], n1=1),
        lambda: WeightVector(SupportSet((0,)), ["a"], 2),
        lambda: WeightVector(SupportSet((0,)), [1.0 + 1.0j], 2),
    ],
    ids=["dataset_complex", "kernel_eval_strings", "kernel_matrix_complex",
         "kernel_matrix_strings", "mean_map_complex", "mean_map_strings", "weights_strings",
         "weights_complex"],
)
def test_non_real_values_rejected(call):
    with pytest.raises(InputError, match="real numbers"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda rng: random_gaussian_instance(rng, max_n1=1),
        lambda rng: random_gaussian_instance(rng, max_n2=1),
        lambda rng: random_gaussian_instance(rng, max_m=0),
        lambda rng: identity_kernel_instance(rng, max_n2=1),
        lambda rng: identity_kernel_instance(rng, max_m=0),
    ],
    ids=["gaussian_n1", "gaussian_n2", "gaussian_m", "identity_n2", "identity_m"],
)
def test_instance_maxima_too_small_rejected(rng, call):
    with pytest.raises(InputError, match="at least"):
        call(rng)


def test_negative_weight_dimension_rejected():
    with pytest.raises(InputError, match="dimension"):
        WeightVector.zeros(-1)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(sigma_range=("a", "b")),
        dict(sigma_range=(0.0, 1.0)),
        dict(sigma_range=(0.5, np.inf)),
        dict(sigma_range=(0.5,)),
        dict(sigma_range=0.5),
        dict(dims=()),
        dict(dims=(2.5,)),
        dict(dims=3),
    ],
    ids=["sigma_strings", "sigma_zero", "sigma_infinite", "sigma_one_value", "sigma_scalar",
         "dims_empty", "dims_non_integer", "dims_scalar"],
)
def test_instance_draw_ranges_rejected(rng, kwargs):
    with pytest.raises(InputError):
        random_gaussian_instance(rng, **kwargs)


def test_numpy_reals_accepted():
    assert SelectionConfig(epsilon=np.float32(0.5)).epsilon == 0.5
    assert KernelSpec("gaussian", bandwidth=np.int64(2), jitter=np.float64(0.0)).bandwidth == 2.0
    assert type(SolverConfig(kkt_tolerance=np.float64(1e-9)).kkt_tolerance) is float


@pytest.mark.parametrize("step", [np.nan, np.inf, 0.0, -1e-6, "1e-6"])
def test_finite_difference_step_must_be_positive_and_finite(rng, step):
    K, mu = gaussian_instance(rng, n1=5, n2=6)
    with pytest.raises(InputError, match="step"):
        finite_difference_check(K, mu, WeightVector.zeros(6), step)
