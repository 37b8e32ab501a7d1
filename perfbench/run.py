"""Run one protoselect benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload dash_5k --seed 1 --seconds 22 --trace 0

The run builds a seeded pool of inputs (the set-up, timed several times
over the run), then runs items round the pool, one full pass at least,
until `--seconds` have passed.
Every item's result goes through the correctness gate outside the timed part.
Timings are reported in reference seconds: wall seconds scaled by the
machine's speed, measured on a fixed calibration mix between items
(calibrate.py).

`--trace 0` prints the end-to-end metrics. `--trace 1` runs each item once
plain and once with spans around protoselect's public functions, checks that
both give the same result, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The lines before it are a
readable table. A manifest (versions, BLAS, seeds, sizes, per-item records)
and, for traced runs, the spans go to `.perfbench_out/` in the repository
root.
"""

import os

# Pin BLAS to one thread before numpy loads. Two BLAS threads on two shared
# cores time the scheduler: proto_dash at n2 = 4000 took 1.33-1.59 s a run
# with them and 0.53-0.58 s pinned.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from collections import defaultdict  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import calibrate  # noqa: E402
from scipy.stats.mstats import hdquantiles  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 21
# Seconds of items between two calibrations of the machine's speed.
CALIBRATE_EVERY_S = 1.0


def import_library():
    """Import protoselect from this checkout's sources, never an installed copy."""
    package = SRC / "protoselect"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no protoselect sources at {package}")
    sys.path.insert(0, str(SRC))
    import protoselect

    if Path(protoselect.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported protoselect from {protoselect.__file__}, not {package}")
    return protoselect


def timed_setup(workload, seed):
    """Build the seeded input pool; return it and the seconds that took."""
    import numpy as np

    start = perf_counter()
    pool = workload.make_pool(np.random.default_rng(seed), workload.sizes)
    return pool, perf_counter() - start


def attempt(workload, inp, sizes, tracer=None):
    """Run one item (inside a root span when traced) and gate its result."""
    from protoselect.errors import ProtoSelectError

    start = perf_counter()
    try:
        if tracer is None:
            out = workload.run_item(inp, sizes)
        else:
            with tracer.installed():
                out = tracer.call("item", workload.run_item, inp, sizes)
    except ProtoSelectError as err:
        return {"seconds": perf_counter() - start, "objective": 0.0, "fingerprint": None,
                "problems": [f"{type(err).__name__}: {err}"]}
    seconds = perf_counter() - start
    outcome = workload.check(out)
    del out  # free this item's Gram matrix before the next item builds its own
    return {"seconds": seconds, "objective": outcome.objective,
            "fingerprint": outcome.fingerprint, "problems": outcome.problems}


def run_items(workload, seed, seconds, tracer=None):
    """Run items over the seeded pool, one full pass at least, until `seconds` have passed.

    The set-up is repeated between items, spread over the run, so its
    median does not hang on one moment's load. The machine's speed is
    calibrated before the first item, after every CALIBRATE_EVERY_S of items
    and after each set-up, which gives every item and set-up record its time
    in reference seconds (see calibrate.py). With a tracer, each item runs
    plain and then traced on the same input; the two results must be
    identical. Returns each input's class, the set-up records, the calibration
    samples, the item records and, per input, the root spans of its traced
    items.
    """
    clock = calibrate.Calibrator(workload.calibration)
    pool, first = timed_setup(workload, seed)
    setups = [{"seconds": first}]
    clock.add(setups[0])
    clock.close()
    records, roots = [], [[] for _ in pool]
    # Keep the interpreter's import-time objects out of the collector's full
    # scans: with numpy and scipy loaded each scan takes about 7 ms and lands
    # on whichever item crosses the threshold, doubling a 15 ms item.
    gc.freeze()
    start = perf_counter()
    while len(records) < len(pool) or perf_counter() - start < seconds:
        p = len(records) % len(pool)
        rec = attempt(workload, pool[p], workload.sizes)
        if tracer is not None:
            roots[p].append(len(tracer.spans))
            traced = attempt(workload, pool[p], workload.sizes, tracer)
            if rec["fingerprint"] != traced["fingerprint"]:
                traced["problems"].append("traced result differs from the plain one")
            rec = {"seconds": rec["seconds"], "traced_seconds": traced["seconds"],
                   "objective": rec["objective"], "problems": rec["problems"] + traced["problems"]}
        rec.pop("fingerprint", None)
        rec["input"] = p
        records.append(rec)
        clock.add(rec)
        if clock.age() < CALIBRATE_EVERY_S:
            continue
        clock.close()
        due = len(setups) * seconds / SETUP_REPEATS
        if len(setups) < SETUP_REPEATS and perf_counter() - start >= due:
            setups.append({"seconds": timed_setup(workload, seed)[1]})
            clock.add(setups[-1])
            clock.close()
    if clock.pending:
        clock.close()
    classes = [workload.input_class(inp) if workload.input_class else p
               for p, inp in enumerate(pool)]
    return classes, setups, clock.samples, records, roots


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a beta-weighted mean of all order statistics.

    The plain sample quantile is one order statistic. Where the values are
    spread thin, as the per-size times of oracle_sweep are around their
    median (consecutive sizes 20-30% apart), it jumps whenever two values
    swap places; the weighted mean moves smoothly.
    """
    if len(values) == 1:
        return float(values[0])
    return float(hdquantiles(values, prob=[q])[0])


def tail(values):
    """Harrell-Davis estimate of the highest percentile with at least 10 values beyond it.

    Below 20 values, the maximum.
    """
    n = len(values)
    if n >= 20:
        return quantile(values, (n - 10) / n), 100.0 * (n - 10) / n
    return max(values), 100.0


def end_to_end(records, classes, setups, calibrations):
    """End-to-end metrics plus the facts printed beside them.

    Times are in reference seconds (see calibrate.py). They are summarised
    per input class: each class's median item time, then the median, the
    tail and the throughput over the classes.
    """
    times, wall = defaultdict(list), defaultdict(list)
    for r in records:
        times[classes[r["input"]]].append(r["ref_seconds"])
        wall[classes[r["input"]]].append(r["seconds"])
    per_class = [statistics.median(t) for t in times.values()]
    passed = sum(not r["problems"] for r in records)
    tail_s, tail_pct = tail(per_class)
    metrics = {
        "setup_s": statistics.median(r["ref_seconds"] for r in setups),
        "items_per_s": passed / len(records) * len(per_class) / sum(per_class),
        "item_s_p50": quantile(per_class, 0.5),
        "item_s_tail": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "objective_sum": sum(r["objective"] for r in records[:len(classes)]),
    }
    n = len(per_class)
    wall_p50 = quantile([statistics.median(t) for t in wall.values()], 0.5)
    notes = {
        "setup_s": f"median of {len(setups)} set-ups, reference s; wall "
                   f"{statistics.median(r['seconds'] for r in setups):.4g} s",
        "items_per_s": f"passed share of items / mean over {n} input classes of their median time",
        "item_s_p50": f"Harrell-Davis median over {n} input classes' median times, reference s; "
                      f"wall {wall_p50:.4g} s",
        "item_s_tail": f"p{tail_pct:.1f} (Harrell-Davis) over {n} input classes' median "
                       "times, reference s",
        "objective_sum": f"first pass over {len(classes)} inputs",
        "calibration": f"speed {statistics.median(calibrations):.4g} x nominal (median of "
                       f"{len(calibrations)} calibrations)",
    }
    return metrics, notes


def blas_threads():
    """Thread count each bundled OpenBLAS reports, by library file name."""
    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[lib.name] = fn()
                    break
    return found


def git_commit():
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(args, workload, protoselect, pool_size):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "tool": "perfbench",
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes,
        "pool": pool_size,
        "protoselect": protoselect.__version__,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(),
                 "env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                         "MKL_NUM_THREADS")}},
        "calibration": {name: calibrate.NOMINAL_S[name] for name in workload.calibration},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    protoselect = import_library()
    import numpy as np

    import spans
    from workloads import END_TO_END, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    # Warm-up on a desk-sized instance: lazy imports and first-call costs
    # stay out of the timed items.
    warm_pool = workload.make_pool(np.random.default_rng(args.seed), workload.small)
    attempt(workload, warm_pool[0], workload.small)
    calibrate.speed(workload.calibration)

    tracer = spans.Tracer() if args.trace else None
    classes, setups, calibrations, records, roots = run_items(
        workload, args.seed, args.seconds, tracer)

    failed = sum(bool(r["problems"]) for r in records)
    notes = {}
    if tracer is None:
        metrics, notes = end_to_end(records, classes, setups, calibrations)
        units = END_TO_END
        notes["failed_frac"] = f"{failed}/{len(records)} items failed the gate"
    else:
        metrics = spans.layer_metrics(tracer.spans, roots)
        metrics["trace.overhead_frac"] = (
            sum(r["traced_seconds"] for r in records) / sum(r["seconds"] for r in records) - 1.0)
        units = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    report = {"manifest": manifest(args, workload, protoselect, len(classes)),
              "metrics": metrics, "notes": notes, "records": records,
              "setups": setups, "calibrations": calibrations}
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1))
    if tracer is not None:
        tracer.dump(stem.with_suffix(".spans.jsonl"))

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(records)} items over {len(classes)} inputs, {failed} failed")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:36s} {value:.6g} {units[name]}{note}")
    if tracer is None:
        print(f"  {'calibration':36s} {notes['calibration']}")
        print(f"  {'failed_frac':36s} {failed / len(records):.6g} frac  ({notes['failed_frac']})")
    for rec in records:
        for problem in rec["problems"]:
            print(f"  FAILED input {rec['input']}: {problem}")
    print(f"  report: {stem.with_suffix('.json').relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
