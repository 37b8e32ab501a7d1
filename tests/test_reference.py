"""ProtoDash end to end against the plain reference pipeline of `reference.py`.

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
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from helpers import RULES
from protoselect import Dataset, KernelSpec, SolverConfig, kernel, kernel_matrix, mean_map, proto_dash
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
