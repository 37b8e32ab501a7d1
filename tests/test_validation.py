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
    kernel_matrix,
    kkt_residual,
    mean_map,
    median_bandwidth,
    objective,
    solve_restricted,
)
from protoselect.errors import DegenerateDataError, NumericError
from protoselect.nnqp import gain_bounds
from protoselect.oracle import (exhaustive_optimal, gamma_over_prefixes, rsc_rsm_bounds,
                                submodularity_ratio, verify_instance)
from protoselect.ranking import (AverageRanks, GraphExport, RankMatrix, average_ranks, export_graph,
                                 rank_sources)
from protoselect.selectors import (CriticismResult, SelectionConfig, SelectionResult, criticisms,
                                   l2c_equal, proto_dash, proto_greedy, random_w, top_m_by_weight)
from helpers import gaussian_instance, synthetic_instance


_SPEC = KernelSpec("gaussian", bandwidth=1.0)
_LINEAR = KernelSpec("linear")
_TINY = KernelSpec("gaussian", bandwidth=1e-200)  # its square underflows to 0


def _datasets():
    rng = np.random.default_rng(7)
    return [Dataset(rng.normal(size=(5, 2)) + i) for i in range(3)]


def _result_on_four_rows():
    K, mu = gaussian_instance(np.random.default_rng(3), n1=5, n2=4)
    return proto_dash(K, mu, SelectionConfig(m=3))


def _asymmetric(n, i, j):
    """An n x n identity whose entry (i, j) alone differs from (j, i)."""
    entries = np.eye(n)
    entries[i, j] = 0.5
    return entries


def _with_nan(n, i, j):
    """An n x n identity whose entry (i, j) alone is NaN."""
    entries = np.eye(n)
    entries[i, j] = np.nan
    return entries


def _rank_matrix():
    rank = np.array([[0, 1, 2], [1, 0, 2], [1, 2, 0]])
    return RankMatrix(names=("a", "b", "c"), objective=-rank)  # objectives that give these ranks


_RAW_GRAM = np.eye(6)  # a plain array where a KernelMatrix belongs


# One call per public function that takes a Gram, each given a raw array as K on an
# instance of six rows; test_package_contract.py checks that no such function is missing.
RAW_GRAM_CALLS = {
    objective: lambda K, mu: objective(WeightVector.zeros(6), _RAW_GRAM, mu),
    gradient: lambda K, mu: gradient(WeightVector.zeros(6), _RAW_GRAM, mu),
    kkt_residual: lambda K, mu: kkt_residual(WeightVector.zeros(6), _RAW_GRAM, mu,
                                             SupportSet((0,))),
    gain_bounds: lambda K, mu: gain_bounds(WeightVector.zeros(6), mu.entries, _RAW_GRAM),
    solve_restricted: lambda K, mu: solve_restricted(_RAW_GRAM, mu, SupportSet((0,))),
    proto_dash: lambda K, mu: proto_dash(_RAW_GRAM, mu, SelectionConfig(m=2)),
    proto_greedy: lambda K, mu: proto_greedy(_RAW_GRAM, mu, SelectionConfig(m=2)),
    l2c_equal: lambda K, mu: l2c_equal(_RAW_GRAM, mu, SelectionConfig(m=2)),
    random_w: lambda K, mu: random_w(_RAW_GRAM, mu, SelectionConfig(m=2, seed=0)),
    top_m_by_weight: lambda K, mu: top_m_by_weight(proto_dash(K, mu, SelectionConfig(m=2)), 1,
                                                   _RAW_GRAM, mu),
    criticisms: lambda K, mu: criticisms(proto_dash(K, mu, SelectionConfig(m=2)), _RAW_GRAM,
                                         mu, 1),
    exhaustive_optimal: lambda K, mu: exhaustive_optimal(_RAW_GRAM, mu, 1),
    submodularity_ratio: lambda K, mu: submodularity_ratio(_RAW_GRAM, mu, SupportSet(), 1),
    gamma_over_prefixes: lambda K, mu: gamma_over_prefixes(_RAW_GRAM, mu, SupportSet((0,)), 1),
    rsc_rsm_bounds: lambda K, mu: rsc_rsm_bounds(_RAW_GRAM, 1),
    verify_instance: lambda K, mu: verify_instance(_RAW_GRAM, mu, 2),
}


@pytest.fixture
def instance(rng):
    K, mu = gaussian_instance(rng, n1=5, n2=6)
    return K, mu, proto_dash(K, mu, SelectionConfig(m=3))


@pytest.mark.parametrize(
    "call",
    [
        lambda K, mu, res: SelectionConfig(m=2.5),
        lambda K, mu, res: SelectionConfig(m=2.0),
        lambda K, mu, res: SolverConfig(max_iterations=2.5),
        lambda K, mu, res: SupportSet((1.5,)),
        lambda K, mu, res: criticisms(res, K, mu, 1.5),
        lambda K, mu, res: top_m_by_weight(res, 1.5, K, mu),
        lambda K, mu, res: exhaustive_optimal(K, mu, 1.5),
        lambda K, mu, res: rsc_rsm_bounds(K, 1.5),
        lambda K, mu, res: submodularity_ratio(K, mu, SupportSet(), 1.5),
        lambda K, mu, res: MeanMap(mu.entries, n1=1.5),
        lambda K, mu, res: export_graph(_rank_matrix(), top_t=1.5),
        lambda K, mu, res: random_w(K, mu, SelectionConfig(m=2, seed=1.5)),
        lambda K, mu, res: WeightVector.zeros(2.5),
        lambda K, mu, res: WeightVector(SupportSet((0,)), np.ones(1), 2.5).dense(),
    ],
    ids=["m", "m_float_integral", "max_iterations", "support_index",
         "criticisms_c", "top_m", "exhaustive_m", "rsc_rsm_k", "submodularity_r", "mean_map_n1",
         "export_top_t", "random_w_seed", "weight_zeros_dimension",
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
        lambda K, mu: gain_bounds(WeightVector.zeros(6), list(mu.entries[:3]), K),
    ],
    ids=["objective", "gradient", "gradient_empty_support", "kkt_index", "kkt_dimension",
         "warm_start", "top_m_result", "gain_bounds_gradient", "gain_bounds_dimension",
         "gain_bounds_short_list"],
)
def test_mismatched_dimensions_rejected(rng, call):
    K, mu = gaussian_instance(rng, n1=5, n2=6)
    with pytest.raises(InputError):
        call(K, mu)


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
        lambda: KernelMatrix(np.eye(2) * (1.0 + 1.0j)),
        lambda: KernelMatrix([["a"]]),
        lambda: MeanMap(np.ones(2) * (1.0 + 1.0j), n1=1),
        lambda: MeanMap(["a"], n1=1),
        lambda: WeightVector(SupportSet((0,)), ["a"], 2),
        lambda: WeightVector(SupportSet((0,)), [1.0 + 1.0j], 2),
        lambda: gain_bounds(WeightVector.zeros(2), ["a", "b"], KernelMatrix(np.eye(2))),
        lambda: SelectionResult("x", WeightVector.zeros(2), ["a"], [], []),
        lambda: CriticismResult((0,), ["a"]),
        lambda: RankMatrix(("a", "b"), [["x", "y"], ["z", "w"]]),
        lambda: AverageRanks(("a",), ["x"]),
    ],
    ids=["dataset_complex", "kernel_eval_strings", "kernel_matrix_complex",
         "kernel_matrix_strings", "mean_map_complex", "mean_map_strings", "weights_strings",
         "weights_complex", "gain_bounds_strings", "selection_trace_strings",
         "criticism_score_strings", "rank_objective_strings", "average_rank_strings"],
)
def test_non_real_values_rejected(call):
    with pytest.raises(InputError, match="real numbers"):
        call()


# The sizes of a gaussian instance: a target row, two source rows for the
# median bandwidth, and at least one prototype for the guarantee check.
@pytest.mark.parametrize(
    "call",
    [
        lambda rng: Dataset(rng.normal(size=(0, 2))),
        lambda rng: median_bandwidth(Dataset(rng.normal(size=(1, 2)))),
        lambda rng: verify_instance(*gaussian_instance(rng, n1=4, n2=5), 0),
    ],
    ids=["gaussian_n1", "gaussian_n2", "gaussian_m"],
)
def test_instance_maxima_too_small_rejected(rng, call):
    with pytest.raises(InputError, match="at least"):
        call(rng)


def test_negative_weight_dimension_rejected():
    with pytest.raises(InputError, match="dimension"):
        WeightVector.zeros(-1)


# The ranges a gaussian instance is drawn from: its bandwidth sigma and its
# data's feature dimensions.
@pytest.mark.parametrize(
    "call",
    [
        lambda: KernelSpec("gaussian", bandwidth="a"),
        lambda: KernelSpec("gaussian", bandwidth=0.0),
        lambda: KernelSpec("gaussian", bandwidth=np.inf),
        lambda: KernelSpec("gaussian", bandwidth=(0.5,)),
        lambda: KernelSpec("linear", bandwidth=0.5),
        lambda: Dataset(np.ones((3, 0))),
        lambda: mean_map(Dataset(np.ones((3, 2))), Dataset(np.ones((3, 3))), _SPEC),
        lambda: Dataset(np.float64(3.0)),
    ],
    ids=["sigma_strings", "sigma_zero", "sigma_infinite", "sigma_one_value", "sigma_scalar",
         "dims_empty", "dims_non_integer", "dims_scalar"],
)
def test_instance_draw_ranges_rejected(call):
    with pytest.raises(InputError):
        call()


def test_numpy_reals_accepted():
    assert SelectionConfig(epsilon=np.float32(0.5)).epsilon == 0.5
    assert KernelSpec("gaussian", bandwidth=np.int64(2), jitter=np.float64(0.0)).bandwidth == 2.0
    assert type(SolverConfig(kkt_tolerance=np.float64(1e-9)).kkt_tolerance) is float


def test_gain_bounds_reads_a_list_gradient(rng):
    K, mu = gaussian_instance(rng, n1=5, n2=6)
    for w in (WeightVector.zeros(6), WeightVector(SupportSet((2,)), np.ones(1), 6)):
        g = gradient(w, K, mu)
        np.testing.assert_array_equal(gain_bounds(w, list(g), K), gain_bounds(w, g, K))


@pytest.mark.parametrize(
    "call",
    [
        lambda: RankMatrix(names=("a", 1, "c"), objective=np.zeros((3, 3))),
        lambda: rank_sources(_datasets(), m=2, spec=_SPEC, names=["a", 1, "c"]),
        lambda: rank_sources(_datasets(), m=2, spec=_SPEC, names=["a", ["b"], "c"]),
    ],
    ids=["rank_matrix", "rank_sources", "rank_sources_unhashable"],
)
def test_non_string_names_rejected(call):
    with pytest.raises(InputError, match="strings"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: SelectionConfig(m=True),
        lambda: SelectionConfig(m=2, seed=np.True_),
        lambda: KernelSpec("gaussian", bandwidth=True),
        lambda: KernelSpec("gaussian", bandwidth=1.0, jitter=False),
        lambda: SolverConfig(kkt_tolerance=True),
        lambda: SolverConfig(max_iterations=True),
        lambda: rank_sources(_datasets(), m=True, spec=_SPEC),
        lambda: criticisms(_result_on_four_rows(), *gaussian_instance(np.random.default_rng(3),
                                                                      n1=5, n2=4), c=True),
        lambda: SupportSet((True, 2)),
        lambda: SupportSet((np.False_,)),
        lambda: MeanMap(np.ones(2), n1=True),
        lambda: WeightVector.zeros(True),
    ],
    ids=["m", "seed_numpy", "bandwidth", "jitter", "kkt_tolerance", "max_iterations",
         "rank_m", "criticisms_c", "support_index", "support_index_numpy", "mean_map_n1",
         "weight_dimension"],
)
def test_bools_rejected_as_numbers(call):
    with pytest.raises(InputError, match="integer|real number"):
        call()


def test_bool_arrays_are_data():
    data = Dataset(np.array([[True, False], [False, True]]))
    np.testing.assert_array_equal(data.values, [[1.0, 0.0], [0.0, 1.0]])


def _no_gain_instance():
    return synthetic_instance(np.eye(3), [-1.0, -1.0, -1.0])


def _one_prototype():
    return WeightVector(SupportSet((0,)), np.ones(1), 2)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda K, mu: Dataset(np.ones(3)), InputError, r"dataset must have shape \(any, any\)"),
        (lambda K, mu: Dataset(np.ones((0, 2))), InputError, "at least one row"),
        (lambda K, mu: KernelSpec("cosine"), InputError, "unknown kernel family"),
        (lambda K, mu: KernelSpec("linear", bandwidth=1.0), InputError, "only applies"),
        (lambda K, mu: KernelMatrix(np.ones((2, 3))), InputError, "square"),
        (lambda K, mu: KernelMatrix(_asymmetric(2, 0, 1)), InputError, "exactly symmetric"),
        (lambda K, mu: KernelMatrix(_asymmetric(600, 299, 3)), InputError, "exactly symmetric"),
        (lambda K, mu: KernelMatrix(_asymmetric(65, 63, 64)), InputError, "exactly symmetric"),
        (lambda K, mu: KernelMatrix(_asymmetric(65, 0, 64)), InputError, "exactly symmetric"),
        (lambda K, mu: KernelMatrix(_with_nan(65, 64, 0)), NumericError, "non-finite"),
        (lambda K, mu: KernelMatrix(_with_nan(65, 40, 40)), NumericError, "non-finite"),
        (lambda K, mu: MeanMap(np.ones((2, 2)), n1=1), InputError,
         r"mean map must have shape \(any,\)"),
        (lambda K, mu: MeanMap(np.ones(2), n1=0), InputError, "n1 must be at least 1"),
        (lambda K, mu: kernel_eval([np.inf], [1.0], KernelSpec("linear")), NumericError,
         "non-finite"),
        (lambda K, mu: kernel_eval([1e200], [1e200], KernelSpec("linear")), NumericError,
         "non-finite"),
        (lambda K, mu: kernel_eval([np.inf], [np.inf], _SPEC), NumericError, "non-finite"),
        (lambda K, mu: kernel_eval([np.inf], [1.0], _SPEC), NumericError, "non-finite"),
        (lambda K, mu: kernel_eval(np.ones((2, 3)), np.ones(6), _SPEC), InputError, "1-D"),
        (lambda K, mu: kernel_eval([], [], _SPEC), InputError, "at least one entry"),
        (lambda K, mu: kernel_eval([1.0], [1.0], _TINY), NumericError, "non-finite"),
        (lambda K, mu: kernel_matrix(Dataset([[1e200], [2e200]]), _LINEAR), NumericError,
         "non-finite"),
        (lambda K, mu: kernel_matrix(Dataset([[1.0], [1.0], [2.0]]), _TINY).rows([0, 1, 2]),
         NumericError, "non-finite"),
        (lambda K, mu: mean_map(Dataset([[1e200], [2e200]]), Dataset([[1e200], [2e200]]),
                                _LINEAR), NumericError, "non-finite"),
        (lambda K, mu: mean_map(Dataset([[0.0], [1.0]]), Dataset([[1.0], [3.0]]), _TINY),
         NumericError, "non-finite"),
        (lambda K, mu: rank_sources([Dataset([[1e200], [2e200]]), Dataset([[1.0], [2.0]])], m=1,
                                    spec=_LINEAR), NumericError, "non-finite"),
        (lambda K, mu: rank_sources(_datasets(), m=2, spec=_TINY), NumericError, "non-finite"),
        (lambda K, mu: SupportSet((0, -1)), InputError, "non-negative"),
        (lambda K, mu: WeightVector(SupportSet((0,)), np.ones(2), 3), InputError,
         r"weights must have shape \(1,\)"),
        (lambda K, mu: WeightVector(SupportSet((0,)), [np.nan], 3), InputError, "non-finite"),
        (lambda K, mu: WeightVector(SupportSet((3,)), np.ones(1), 3), InputError, "out of range"),
        (lambda K, mu: SolverConfig(kkt_tolerance=0.0), InputError, "kkt_tolerance must be pos"),
        (lambda K, mu: SolverConfig(max_iterations=0), InputError, "max_iterations must be at"),
        (lambda K, mu: solve_restricted(K, mu, SupportSet((0, 1)),
                                        warm_start=WeightVector(SupportSet((2,)), np.ones(1), 6)),
         InputError, "warm start"),
        (lambda K, mu: exhaustive_optimal(K, mu, 0), InputError, "m must be at least 1"),
        (lambda K, mu: exhaustive_optimal(K, mu, 7), InputError, "m must be at most 6"),
        (lambda K, mu: rsc_rsm_bounds(K, 0), InputError, "k must be at least 1"),
        (lambda K, mu: rsc_rsm_bounds(K, 7), InputError, "k must be at most 6"),
        (lambda K, mu: submodularity_ratio(K, mu, SupportSet(), 0), InputError,
         "r must be at least 1"),
        (lambda K, mu: gamma_over_prefixes(*_no_gain_instance(), SupportSet((0,)), 1),
         DegenerateDataError, "any prefix"),
        (lambda K, mu: RankMatrix(("a", "b"), np.zeros((3, 3))), InputError,
         r"objective must have shape \(2, 2\)"),
        (lambda K, mu: RankMatrix(("a", "b"), [[0.0, np.nan], [1.0, 0.0]]), InputError,
         "objective contains non-finite"),
        (lambda K, mu: RankMatrix(("a", "b"), [[np.inf, 1.0], [1.0, 0.0]]), InputError,
         "objective contains non-finite"),
        (lambda K, mu: AverageRanks(("a", "b"), [1.0]), InputError,
         r"values must have shape \(2,\)"),
        (lambda K, mu: rank_sources(_datasets(), m=2, spec=_SPEC, names=["a", "a", "b"]),
         InputError, "unique"),
        (lambda K, mu: rank_sources(_datasets(), m=2, spec=_SPEC, names=5), InputError,
         "names must be a list or tuple"),
        (lambda K, mu: rank_sources(_datasets(), m=2, spec=_SPEC, names=(n for n in "abc")),
         InputError, "names must be a list or tuple"),
        (lambda K, mu: rank_sources([ds.values for ds in _datasets()], m=2, spec=_SPEC),
         InputError, "datasets must be a list or tuple of Dataset"),
        (lambda K, mu: rank_sources(iter(_datasets()), m=2, spec=_SPEC), InputError,
         "datasets must be a list or tuple of Dataset"),
        (lambda K, mu: SelectionConfig(m=-1), InputError, "m must be at least 0"),
        (lambda K, mu: SelectionConfig(epsilon=0.0), InputError, "epsilon must be positive"),
        (lambda K, mu: SelectionResult("x", _one_prototype(), [1.0, 2.0], [1.0], [0.0]),
         InputError, r"objective_trace must have shape \(1,\)"),
        (lambda K, mu: SelectionResult("x", np.zeros(0), [], [], []), InputError,
         "must be a WeightVector"),
        (lambda K, mu: CriticismResult((0, 1), [1.0]), InputError,
         r"scores must have shape \(2,\)"),
        (lambda K, mu: CriticismResult((0, 1), [1.0, 2.0]), InputError, "non-increasing"),
        (lambda K, mu: CriticismResult((0.5,), [1.0]), InputError, "criticism indices must be int"),
        (lambda K, mu: proto_dash(K, MeanMap(np.ones(5), n1=1), SelectionConfig(m=2)),
         InputError, "does not fit a kernel matrix"),
        (lambda K, mu: random_w(K, mu, SelectionConfig(epsilon=0.1, seed=1)), InputError,
         "m-termination"),
        (lambda K, mu: SelectionConfig(m=2, solver="x"), InputError, "solver must be a Solver"),
        (lambda K, mu: solve_restricted(K, mu, SupportSet((0,)), "x"), InputError,
         "solver must be a Solver"),
        (lambda K, mu: top_m_by_weight(proto_dash(K, mu, SelectionConfig(m=3)), 1, K, mu,
                                       solver="x"), InputError, "solver must be a Solver"),
        (lambda K, mu: verify_instance(K, mu, 2, solver="x"), InputError,
         "solver must be a Solver"),
        (lambda K, mu: rank_sources(_datasets(), m=2, spec=_SPEC, solver="x"), InputError,
         "solver must be a Solver"),
        (lambda K, mu: criticisms(K, mu, proto_dash(K, mu, SelectionConfig(m=2)), 3), InputError,
         "result must be a SelectionResult, got LazyGram"),
        (lambda K, mu: proto_dash(mu, K, SelectionConfig(m=2)), InputError,
         "mu must be a MeanMap, got LazyGram"),
        (lambda K, mu: mean_map(_datasets()[0].values, _datasets()[0], _SPEC), InputError,
         "target must be a Dataset, got ndarray"),
        (lambda K, mu: kernel_matrix(_datasets()[0].values, _SPEC), InputError,
         "source must be a Dataset, got ndarray"),
        (lambda K, mu: rank_sources(_datasets()[:2], 2, "gaussian"), InputError,
         "spec must be a KernelSpec, got str"),
        (lambda K, mu: kernel_matrix(_datasets()[0], "gaussian"), InputError,
         "spec must be a KernelSpec"),
        (lambda K, mu: mean_map(_datasets()[0], _datasets()[1].values, _SPEC), InputError,
         "source must be a Dataset"),
        (lambda K, mu: mean_map(_datasets()[0], _datasets()[1], None), InputError,
         "spec must be a KernelSpec"),
        (lambda K, mu: median_bandwidth(_datasets()[0].values), InputError,
         "data must be a Dataset"),
        (lambda K, mu: proto_greedy(K, mu.entries, SelectionConfig(m=2)), InputError,
         "mu must be a MeanMap"),
        (lambda K, mu: proto_dash(K, mu, 2), InputError, "cfg must be a SelectionConfig"),
        (lambda K, mu: l2c_equal(K, mu, {"m": 2}), InputError, "cfg must be a SelectionConfig"),
        (lambda K, mu: random_w(K, mu, None), InputError, "cfg must be a SelectionConfig"),
        (lambda K, mu: top_m_by_weight(proto_dash(K, mu, SelectionConfig(m=2)).weights, 1, K, mu),
         InputError, "result must be a SelectionResult"),
        (lambda K, mu: top_m_by_weight(proto_dash(K, mu, SelectionConfig(m=2)), 1, K, mu.entries),
         InputError, "mu must be a MeanMap"),
        (lambda K, mu: criticisms(proto_dash(K, mu, SelectionConfig(m=2)), K, mu.entries, 1),
         InputError, "mu must be a MeanMap"),
        (lambda K, mu: objective(WeightVector.zeros(6), K, mu.entries), InputError,
         "mu must be a MeanMap, got ndarray"),
        (lambda K, mu: solve_restricted(K, mu, (0, 1)), InputError,
         "L must be a SupportSet, got tuple"),
        (lambda K, mu: kkt_residual(WeightVector.zeros(6), K, mu, (0, 1, 2)), InputError,
         "L must be a SupportSet, got tuple"),
        (lambda K, mu: kernel_eval([1.0], [2.0], "gaussian"), InputError,
         "spec must be a KernelSpec, got str"),
        (lambda K, mu: gradient(WeightVector.zeros(6).dense(), K, mu), InputError,
         "w must be a WeightVector, got ndarray"),
        (lambda K, mu: gain_bounds(None, mu.entries, K), InputError,
         "w must be a WeightVector, got NoneType"),
        (lambda K, mu: gain_bounds(WeightVector.zeros(6), np.r_[np.nan, mu.entries[1:]], K),
         InputError, "gradient contains non-finite entries"),
        (lambda K, mu: solve_restricted(K, mu, SupportSet((0,)), warm_start=np.zeros(6)),
         InputError, "warm_start must be a WeightVector, got ndarray"),
        (lambda K, mu: WeightVector((0,), [1.0], 6), InputError,
         "support must be a SupportSet, got tuple"),
        (lambda K, mu: submodularity_ratio(K, mu, (0,), 1), InputError,
         "L must be a SupportSet, got tuple"),
        (lambda K, mu: gamma_over_prefixes(K, mu, [0, 1], 1), InputError,
         "selection must be a SupportSet, got list"),
        (lambda K, mu: gamma_over_prefixes(K, mu, SupportSet((0, 6)), 1), InputError,
         "beyond the 6 rows of K"),
        (lambda K, mu: gamma_over_prefixes(K, mu, SupportSet((0, 70)), 1), InputError,
         "beyond the 6 rows of K"),
        (lambda K, mu: submodularity_ratio(K, mu, SupportSet((6,)), 1), InputError,
         "beyond the 6 rows of K"),
        (lambda K, mu: RankMatrix(5, np.zeros((2, 2))), InputError,
         "names must be a list or tuple of unique strings"),
        (lambda K, mu: AverageRanks(5, [1.0, 2.0]), InputError,
         "names must be a list or tuple of unique strings"),
        (lambda K, mu: RankMatrix(("a", "a"), np.zeros((2, 2))), InputError,
         "names must be a list or tuple of unique strings"),
        (lambda K, mu: RankMatrix("ab", np.zeros((2, 2))), InputError,
         "names must be a list or tuple of unique strings"),
        (lambda K, mu: export_graph("x", 1), InputError, "rm must be a RankMatrix, got str"),
        (lambda K, mu: average_ranks("x"), InputError, "rm must be a RankMatrix, got str"),
        (lambda K, mu: rank_sources(_datasets(), m=2, spec=_SPEC, names=["a", "b"]), InputError,
         "names must align with datasets"),
        (lambda K, mu: solve_restricted(K, mu, SupportSet((2**70,))), InputError,
         "support indices must be at most"),
        (lambda K, mu: CriticismResult((2**70,), [1.0]), InputError,
         "criticism indices must be at most"),
        (lambda K, mu: GraphExport(5).dot, InputError, "data must be a dict with nodes and edges"),
        (lambda K, mu: GraphExport({}).dot, InputError, "data must be a dict with nodes and edges"),
        (lambda K, mu: GraphExport({"nodes": ["a"], "edges": [{"from": "a", "to": "b", "rank": 1}]}),
         InputError, "data edges must be dicts with a rank, and from and to among the nodes"),
        (lambda K, mu: RankMatrix(("a",), np.zeros((1, 1))), InputError,
         "ranking needs at least two datasets"),
        (lambda K, mu: RankMatrix((), np.zeros((0, 0))), InputError,
         "ranking needs at least two datasets"),
    ] + [(call, InputError, "K must be a KernelMatrix, got ndarray")
         for call in RAW_GRAM_CALLS.values()],
    ids=["dataset_1d", "dataset_empty", "kernel_family", "linear_bandwidth", "kernel_not_square",
         "kernel_asymmetric", "kernel_asymmetric_off_diagonal_tile",
         "kernel_asymmetric_across_chunk_edge", "kernel_asymmetric_first_row_past_chunk",
         "kernel_nan_last_row", "kernel_nan_diagonal", "mean_map_2d",
         "mean_map_n1_zero", "kernel_eval_non_finite", "kernel_eval_overflow",
         "kernel_eval_infinite_difference", "kernel_eval_infinite_argument",
         "kernel_eval_matrix", "kernel_eval_empty", "kernel_eval_tiny_bandwidth_same_point",
         "kernel_matrix_linear_overflow", "kernel_matrix_tiny_bandwidth_duplicate_rows",
         "mean_map_linear_overflow",
         "mean_map_tiny_bandwidth_coinciding_rows", "rank_linear_overflow", "rank_tiny_bandwidth",
         "support_negative",
         "weights_misaligned", "weights_non_finite", "weights_index_beyond_dimension",
         "kkt_tolerance_zero", "max_iterations_zero", "warm_start_outside_L", "exhaustive_m_zero",
         "exhaustive_m_beyond_n2", "rsc_k_zero", "rsc_k_beyond_n2", "submodularity_r_zero",
         "gamma_no_prefix_gains", "rank_matrix_shape", "rank_objective_nan",
         "rank_objective_infinite", "average_ranks_alignment",
         "rank_duplicate_names", "rank_names_int", "rank_names_generator", "rank_raw_arrays",
         "rank_datasets_iterator", "m_negative", "epsilon_zero",
         "selection_result_trace", "selection_result_weights_type", "criticism_alignment", "criticism_order",
         "criticism_index_non_integer", "selector_mu_size",
         "random_w_epsilon_mode", "selection_solver", "solve_restricted_cfg", "top_m_solver",
         "verify_solver", "rank_solver", "criticisms_arguments_out_of_order",
         "proto_dash_arguments_out_of_order", "mean_map_raw_target", "kernel_matrix_raw_source",
         "rank_sources_family_name", "kernel_matrix_spec", "mean_map_raw_source",
         "mean_map_spec_none", "median_bandwidth_raw_data", "selector_raw_mu", "selector_cfg_int",
         "l2c_cfg_dict", "random_w_cfg_none", "top_m_weights_for_result", "top_m_raw_mu",
         "criticisms_raw_mu", "objective_raw_mu", "solve_restricted_tuple_L",
         "kkt_residual_tuple_L", "kernel_eval_family_name", "gradient_dense_weights",
         "gain_bounds_no_weights", "gain_bounds_non_finite_gradient",
         "solve_restricted_raw_warm_start",
         "weight_vector_tuple_support", "submodularity_tuple_L", "gamma_list_selection",
         "gamma_index_at_n2", "gamma_index_past_n2", "submodularity_index_at_n2",
         "rank_matrix_names_int", "average_ranks_names_int", "rank_names_repeated",
         "rank_names_bare_string", "export_graph_raw_rm", "average_ranks_raw_rm",
         "rank_names_misaligned", "support_index_overflow", "criticism_index_overflow",
         "graph_export_int", "graph_export_empty_dict", "graph_export_unknown_node",
         "rank_matrix_one_name", "rank_matrix_no_names"]
    + [f"{function.__name__}_raw_gram" for function in RAW_GRAM_CALLS],
)
def test_each_check_raises_its_error(rng, call, error, match):
    K, mu = gaussian_instance(rng, n1=5, n2=6)
    with pytest.raises(error, match=match):
        call(K, mu)


@pytest.mark.parametrize(
    "target, source, want",
    [([[1e200], [-1e200]], [[1e200], [2.0]], [0.0, 0.0]),
     ([[1e154], [1e154]], [[1e154]], [1e308]),
     ([[1e308], [1e308]], [[0.5]], [5e307])],
    ids=["mixed_signs", "sum_overflow", "column_sum_overflow"],
)
def test_linear_mean_map_of_a_finite_mean(target, source, want):
    # A linear mean map is the target's mean row against each source row, so it is
    # finite wherever that mean and its products are, although a whole block's entries
    # (here +-1e400 or 1e308 + 1e308) would overflow. The mean row sums rows divided by
    # n1, so a column sum past the largest float (here 2e308) does not overflow either.
    got = mean_map(Dataset(target), Dataset(source), _LINEAR).entries
    assert got.tobytes() == np.array(want).tobytes()


def test_graph_export_keeps_a_copy_of_its_data():
    # A later change to the caller's dict, or to what `data` returns, reaches neither
    # the graph nor its DOT text.
    data = {"nodes": ["a", "b"], "edges": [{"from": "a", "to": "b", "rank": 1}]}
    g = GraphExport(data)
    dot = g.dot
    data["nodes"].append("c")
    data["edges"].append({"from": "a", "to": "zzz"})
    data["edges"][0]["rank"] = 2
    g.data["edges"].clear()
    assert g.dot == dot
    assert g.data == {"nodes": ["a", "b"], "edges": [{"from": "a", "to": "b", "rank": 1}]}
