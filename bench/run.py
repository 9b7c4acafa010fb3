"""Benchmark of kreincalc: three closed-loop workloads, one client each.

Run from the root of a checkout (it imports the library from ``src/``):

    python3 bench/run.py --workload apply-mix --seed 7 --seconds 30 --trace 0

With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer ones. Readable lines come first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
README.md in this directory describes workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("corpus-verify", "build-scale", "apply-mix")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PREPARE_REPEATS = 3  # set-up is timed this often; setup_s uses the median
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs and one pass over the op list instead of --seconds",
    )
    return ap.parse_args(argv)


def load_library():
    """Import kreincalc from this checkout's sources, with BLAS pinned."""
    src = ROOT / "src"
    if not (src / "kreincalc" / "__init__.py").is_file():
        sys.exit(f"benchmark: no kreincalc sources under {src}")
    # one BLAS/OpenMP thread: the pools start when numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(HERE)]
    import kreincalc

    if Path(kreincalc.__file__).resolve().parent != (src / "kreincalc").resolve():
        sys.exit(f"benchmark: kreincalc was imported from {kreincalc.__file__}")
    return kreincalc


def environment(args) -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']} {info['version']}"
        except (TypeError, KeyError, AttributeError):
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Runner:
    """Runs single ops, times them and tallies their outcomes."""

    def __init__(self, workload, error_type):
        from workloads import OK, REPORTED, SILENT

        self.severity = (OK, REPORTED, SILENT)  # in increasing order
        self.ok, self.reported, self.silent = self.severity
        self.wl = workload
        self.error_type = error_type
        self.outcomes = {}  # op index -> worst outcome over its replays
        self._shown = False

    def op(self, k, tracer=None) -> float:
        """Run op k, timed, then check its output untimed and untraced."""
        op = self.wl.ops[k]
        self.wl.before(op)
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = self.wl.run(op)
            dt = time.perf_counter() - t0
        except self.error_type:
            self._record(k, self.reported)
            return time.perf_counter() - t0
        except Exception:  # a crash: count it, show the first, keep measuring
            dt = time.perf_counter() - t0
            self._show()
            self._record(k, self.silent)
            return dt
        finally:
            if tracer is not None:
                tracer.uninstall()
        try:
            outcome = self.wl.check(op, out)
        except self.error_type:
            outcome = self.reported
        except Exception:
            self._show()
            outcome = self.silent
        self._record(k, outcome)
        return dt

    def _record(self, k, outcome):
        """Keep the worst outcome of op k; each op is counted once per run,
        so the counts depend on the seed only, not on how many replays fit."""
        seen = self.outcomes.get(k, self.ok)
        self.outcomes[k] = max(seen, outcome, key=self.severity.index)

    def _show(self):
        if not self._shown:
            traceback.print_exc(file=sys.stderr)
            self._shown = True

    def loop(self, seconds, min_ops, tracer=None):
        """Replay the op list until `seconds` have passed and at least
        `min_ops` ops have run.

        With a tracer every op runs twice in a row, untraced then traced.
        Returns the untraced and the traced latencies in seconds, each a list
        of (op index, seconds).
        """
        plain, traced = [], []
        end = time.perf_counter() + seconds
        i = 0
        while i < min_ops or time.perf_counter() < end:
            k = i % len(self.wl.ops)
            i += 1
            plain.append((k, self.op(k)))
            if tracer is not None:
                traced.append((k, self.op(k, tracer)))
        return plain, traced


def per_op_mean(samples):
    """Each op's mean latency over its replays in the run, in seconds.

    The machine the benchmark was tuned on (2 vCPUs on a shared host) runs
    1.3 to 1.6 times slower for stretches of seconds to minutes, so the
    plain median of a run lands in one speed state or the other. An op's
    mean over replays spread through the run averages the states instead;
    the tail still uses every sample.
    """
    runs = {}
    for k, dt in samples:
        runs.setdefault(k, []).append(dt)
    return [statistics.fmean(v) for v in runs.values()]


def tail(latencies):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above."""
    xs = sorted(latencies)
    m = len(xs)
    if m <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[m - TAIL_BEYOND - 1], 100.0 * (m - TAIL_BEYOND) / m


def main(argv=None) -> int:
    args = parse_args(argv)
    kc = load_library()
    import_s = time.perf_counter() - START
    from workloads import REPORTED, SILENT, WORKLOADS

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    wl = WORKLOADS[args.workload](args.seed, ROOT, args.smoke)
    try:
        prepare_s = []
        for _ in range(PREPARE_REPEATS):
            t0 = time.perf_counter()
            wl.prepare()
            prepare_s.append(time.perf_counter() - t0)
        runner = Runner(wl, kc.KreinCalcError)
        t0 = time.perf_counter()
        runner.loop(0.0, wl.warmup)
        warmup_s = time.perf_counter() - t0
        runner.outcomes.clear()  # warm-up ops are not counted
        setup_s = import_s + statistics.median(prepare_s) + warmup_s

        tracer = None
        if args.trace:
            from tracing import METRICS, Tracer

            tracer = Tracer()
        # every op runs at least once, so every op's outcome is counted
        seconds = 0.0 if args.smoke else args.seconds
        plain, traced = runner.loop(seconds, len(wl.ops), tracer)
    finally:
        wl.close()

    outcomes = Counter(runner.outcomes.values())
    attempted = len(runner.outcomes)
    failed = outcomes[REPORTED] + outcomes[SILENT]
    means = per_op_mean(plain)
    p50_ms = 1e3 * statistics.median(means)
    if tracer is None:
        times = [dt for _, dt in plain]
        tail_s, tail_pct = tail(times)
        metrics = {
            "setup_s": (setup_s, "s", f"import {import_s:.3f} s, median of "
                        f"{PREPARE_REPEATS} set-ups {statistics.median(prepare_s):.3f} s, "
                        f"warm-up of {wl.warmup} ops {warmup_s:.3f} s"),
            "op_p50_ms": (
                p50_ms, "ms",
                f"median over {len(means)} ops of their mean over replays; {len(times)} runs",
            ),
            "op_tail_ms": (1e3 * tail_s, "ms", f"p{tail_pct:.2f} of {len(times)} runs"),
            "ops_per_s": (len(times) / sum(times), "1/s", "per second of timed op time"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "ru_maxrss"
            ),
        }
    else:
        overhead = 1e3 * statistics.median(per_op_mean(traced)) - p50_ms
        note = f"averaged over {len(traced)} traced ops"
        values = tracer.per_op(len(traced))
        metrics = {name: (values[name], unit, note) for name, unit in METRICS}
        metrics["trace.overhead_ms"] = (
            overhead, "ms", f"traced minus untraced op_p50_ms ({p50_ms:.3f} ms untraced)"
        )
        metrics["trace.ops"] = (float(len(traced)), "count", "traced ops")
        if tracer.absent:
            print("absent (not in this tree): " + ", ".join(tracer.absent))

    for name, (value, unit, note) in metrics.items():
        print(f"{name} {value:.6g} {unit} ({note})")
    print(
        f"fail_frac {failed / attempted:.6g} ratio ({failed} of {attempted} distinct ops "
        f"failed over {len(plain)} runs: {outcomes[REPORTED]} reported by the library, "
        f"{outcomes[SILENT]} silent)"
    )
    result = {
        "correct": outcomes[SILENT] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
