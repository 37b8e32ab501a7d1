"""Machine-speed calibration, so that timings on a shared host repeat.

On a few cores of a shared machine the same code runs 10-45% faster or slower
from one minute to the next, and a run's wall times move with it: the medians
of identical 25-second stretches of work spread by 10-27% (first to third
quartile, as a share of the median). So each run times fixed pieces of work,
which never call protoselect, between its items, and reports its timings in
reference seconds: wall seconds times the machine's speed then, relative to
the pieces' nominal times. A change to the program moves reference seconds as
it moves wall seconds; a change in the machine's speed slows the pieces as
well, and mostly cancels.

The pieces differ in what slows them: the interpreter loop and the tiny
solves in how fast the core runs Python and small LAPACK calls, the
streaming pass and the Gram matrix in the shared cache and memory bus. Each
workload is calibrated with the pieces that slow as its own dominant layer
does (workloads.py). Over 5-minute stretches of the machine's noise the
spread of 25-second medians went from 10-12% to 4-5% for kernel-bound work,
and from 13-27% to 6-10% for the nnqp and oracle work, while a mix of every
piece made the kernel-bound spread worse.
"""

import math
from time import perf_counter

import numpy as np
from scipy.linalg import cho_factor, cho_solve

_rng = np.random.default_rng(20170705)
_stream = _rng.standard_normal(1 << 20)  # 8 MiB, twice the L2 cache
_stream_out = np.empty_like(_stream)
_points = _rng.standard_normal((1024, 20))
_sq_norms = np.einsum("ij,ij->i", _points, _points)
_spd = _rng.standard_normal((4, 4))
_spd = _spd @ _spd.T + 4.0 * np.eye(4)
_rhs = _rng.standard_normal(4)


def interpreter():
    table = {}
    for i in range(200_000):
        key = i & 511
        table[key] = table.get(key, 0) + i
    return table


def small_solves():
    """Tiny Cholesky solves and eigenvalues, as nnqp and the oracle make by the thousand."""
    for _ in range(900):
        x = cho_solve(cho_factor(_spd), _rhs)
        np.linalg.eigvalsh(_spd)
    return x


def streaming():
    for _ in range(16):
        np.exp(np.multiply(_stream, 0.5, out=_stream_out), out=_stream_out)
    return _stream_out


def gram():
    """A gaussian Gram matrix of fixed points, computed as the kernel layer computes one."""
    for _ in range(2):
        dist = _sq_norms[:, None] + _sq_norms[None, :] - 2.0 * (_points @ _points.T)
        np.maximum(dist, 0.0, out=dist)
        dist *= -0.5 / _points.shape[1]
        np.exp(dist, out=dist)
    return dist


PIECES = {f.__name__: f for f in (interpreter, small_solves, streaming, gram)}

# Seconds each piece takes at nominal speed: about its median on a shared
# 2-core Xeon (4 MiB L2) with BLAS on one thread. They only set the scale, so
# that reference seconds read like seconds there; they must never change, or
# every stored figure changes with them.
NOMINAL_S = {"interpreter": 0.025, "small_solves": 0.029, "streaming": 0.031, "gram": 0.027}


def speed(pieces) -> float:
    """The machine's speed now on `pieces`: the geometric mean of nominal over measured time."""
    log_sum = 0.0
    for name in pieces:
        start = perf_counter()
        PIECES[name]()
        log_sum += math.log(NOMINAL_S[name] / (perf_counter() - start))
    return math.exp(log_sum / len(pieces))


class Calibrator:
    """Scales wall times taken between two calibrations to reference seconds.

    `add` queues a record whose "seconds" were measured since the last
    calibration; `close` calibrates again and gives each queued record
    "ref_seconds": its seconds times the geometric mean of the speeds
    measured on either side.
    """

    def __init__(self, pieces):
        self.pieces = pieces
        self.samples = [speed(pieces)]
        self.pending = []
        self.opened = perf_counter()

    def add(self, record: dict) -> None:
        self.pending.append(record)

    def age(self) -> float:
        return perf_counter() - self.opened

    def close(self) -> None:
        before = self.samples[-1]
        self.samples.append(speed(self.pieces))
        factor = math.sqrt(before * self.samples[-1])
        for record in self.pending:
            record["ref_seconds"] = record["seconds"] * factor
        self.pending = []
        self.opened = perf_counter()
