"""The selectors end to end against the plain reference pipeline of `reference.py`.

The package's lazy Gram, GEMM mean map and warm-started active-set solve
must pick what the dense reference picks, with objectives within 1e-10
relative. Two runs may part only where the reference's step is close to
another outcome, so the comparison ends at the first step where
- its largest gradient lies within TIE, a stated multiple of roundoff, of
  the next candidate's: roundoff in either pipeline may decide the pick; or
- its largest gradient is at most the solver's KKT tolerance: the package's
  active-set solve lets a zero weight enter only when its gradient passes
  half that tolerance, by design, while NNLS lets it enter at any positive
  gradient, so from there on the weights, and the gradients, may differ by
  more than roundoff.
Each drawn instance runs twice, the second time with the mean map's GEMM at
any size. Some select a dataset's prototypes against its own mean map, as
`rank_sources` does, which `mean_map` computes from each pair once.

ProtoGreedy, L2C and the criticisms are compared under the same rule: a step
ends the comparison where its two best gains, objectives or scores lie
within TIE, or where ProtoGreedy's largest gradient is at most the KKT
tolerance. Each of
these tests also asserts the share of steps it compared over its draws, so
that it cannot pass by ending every comparison at once.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from helpers import RULES
from protoselect import (Dataset, KernelSpec, SolverConfig, criticisms, kernel, kernel_matrix,
                         l2c_equal, mean_map, proto_dash, proto_greedy)
from protoselect.selectors import SelectionConfig

# 2^16 unit roundoffs, about 7.3e-12. The gradients are differences of kernel means and
# weighted kernel sums, of order 1. Up to the first step that ends the comparison, the two
# pipelines' gradients differed by at most 15 roundoffs on this suite's draws.
TIE = 2.0 ** 16 * np.finfo(float).eps / 2
KKT = SolverConfig().kkt_tolerance


def compared_steps(source, target, m):
    """How many of ProtoDash's steps agree with the reference before the first step that
    ends the comparison; fails at the first step that differs. A target of None selects
    against the source's own mean map, passed to mean_map as one Dataset on both sides."""
    sigma = reference.median_bandwidth(source)
    spec = KernelSpec("gaussian", bandwidth=sigma)
    data = Dataset(source)
    mu = mean_map(data if target is None else Dataset(target), data, spec)
    got = proto_dash(kernel_matrix(data, spec), mu, SelectionConfig(m=m))
    target = source if target is None else target
    indices, objectives, leads = reference.proto_dash(
        reference.gram(source, sigma), reference.mean_map(target, source, sigma), m)
    for step, (first, second) in enumerate(leads):
        if first - second <= TIE or first <= KKT:
            return step
        assert got.indices.indices[step] == indices[step], f"step {step}"
        assert got.objective_trace[step] == pytest.approx(objectives[step], rel=1e-10, abs=0)
    assert len(got.indices) == len(indices)
    return len(indices)


@RULES
@given(n2=st.integers(5, 300), n1=st.integers(1, 300), d=st.integers(1, 8),
       m=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_proto_dash_matches_the_reference(n2, n1, d, m, seed):
    rng = np.random.default_rng(seed)
    source = rng.normal(size=(n2, d))
    target = rng.normal(size=(n1, d)) + 0.3
    compared_steps(source, target, min(m, n2))
    with mock.patch.object(kernel, "_GEMM_MIN_WORK", 0):  # the GEMM mean map at any size
        compared_steps(source, target, min(m, n2))


@RULES
@given(n=st.integers(5, 300), d=st.integers(1, 8), m=st.integers(1, 40),
       seed=st.integers(0, 2 ** 32 - 1))
def test_proto_dash_on_its_own_mean_map_matches_the_reference(n, d, m, seed):
    source = np.random.default_rng(seed).normal(size=(n, d))
    compared_steps(source, None, min(m, n))
    with mock.patch.object(kernel, "_GEMM_MIN_WORK", 0):  # the GEMM mean map at any size
        compared_steps(source, None, min(m, n))


def test_proto_dash_matches_the_reference_on_threaded_tiles():
    # 1200 source rows split into two slabs of the mean map wherever two cores are usable,
    # and 1500 target rows span two GEMM tiles of 1024 columns.
    rng = np.random.default_rng(26)
    source, target = rng.normal(size=(1200, 5)), rng.normal(size=(1500, 5)) + 0.3
    assert compared_steps(source, target, 40) == 40
    # The source's own mean map: three bands of 512 rows, split over two slabs.
    assert compared_steps(source, None, 40) == 40


def _instance(n2, n1, d, seed):
    """Seeded source and target rows, the package's Gram and mean map, and the reference's."""
    rng = np.random.default_rng(seed)
    source = rng.normal(size=(n2, d))
    target = rng.normal(size=(n1, d)) + 0.3
    sigma = reference.median_bandwidth(source)
    spec = KernelSpec("gaussian", bandwidth=sigma)
    K, mu = kernel_matrix(Dataset(source), spec), mean_map(Dataset(target), Dataset(source), spec)
    return K, mu, reference.gram(source, sigma), reference.mean_map(target, source, sigma)


def _agreeing_steps(got, indices, objectives, ends):
    """How many steps agree before the first that ends the comparison; fails at the first
    step that differs."""
    for step, end in enumerate(ends):
        if end:
            return step
        assert got.indices.indices[step] == indices[step], f"step {step}"
        assert got.objective_trace[step] == pytest.approx(objectives[step], rel=1e-10, abs=0)
    assert len(got.indices) == len(indices)
    return len(indices)


def _share_compared(draw):
    """Run the draws of a `given` test whose body returns (steps compared, steps), and
    return the share of all steps compared."""
    counts = []

    @RULES
    @given(n2=st.integers(5, 60), n1=st.integers(1, 100), d=st.integers(1, 6),
           m=st.integers(1, 15), seed=st.integers(0, 2 ** 32 - 1))
    def each(n2, n1, d, m, seed):
        counts.append(draw(n2, n1, d, m, seed))

    each()
    compared, steps = np.sum(counts, axis=0)
    return compared / steps


def test_proto_greedy_matches_the_reference():
    def draw(n2, n1, d, m, seed):
        K, mu, Kd, mud = _instance(n2, n1, d, seed)
        got = proto_greedy(K, mu, SelectionConfig(m=min(m, n2)))
        indices, objectives, leads = reference.proto_greedy(Kd, mud, min(m, n2))
        ends = [first - second <= TIE or top <= KKT for first, second, top in leads]
        return _agreeing_steps(got, indices, objectives, ends), len(leads)

    assert _share_compared(draw) >= 0.9


def test_l2c_matches_the_reference():
    def draw(n2, n1, d, m, seed):
        K, mu, Kd, mud = _instance(n2, n1, d, seed)
        got = l2c_equal(K, mu, SelectionConfig(m=min(m, n2)))
        indices, objectives, leads = reference.l2c(Kd, mud, min(m, n2))
        ends = [first - second <= TIE for first, second in leads]
        return _agreeing_steps(got, indices, objectives, ends), len(leads)

    assert _share_compared(draw) >= 0.9


def test_criticisms_match_the_reference():
    def draw(n2, n1, d, m, seed):
        K, mu, Kd, mud = _instance(n2, n1, d, seed)
        res = proto_dash(K, mu, SelectionConfig(m=min(m, n2 - 1)))
        c = n2 - len(res.indices)
        got = criticisms(res, K, mu, c)
        indices, scores = reference.criticisms(Kd, mud, list(res.indices), res.weights.weights, c)
        for k in range(c):
            if k + 1 < c and scores[k] - scores[k + 1] <= TIE:
                return k, c
            assert got.indices[k] == indices[k], f"criticism {k}"
            # a score is a gradient's magnitude: a difference of order-1 terms, whose
            # roundoff TIE bounds, as it bounds the gradients'
            assert got.scores[k] == pytest.approx(scores[k], rel=1e-10, abs=TIE)
        return c, c

    assert _share_compared(draw) >= 0.9
