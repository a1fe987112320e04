"""One benchmark process: set up a workload, then run it in a closed loop.

Usage (started by run.py, one process per set-up):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

It prints ``READY`` once imports, input generation and warm-up are done, so
the parent can time set-up from process start.  With ``--seconds 0`` it
stops there.  Otherwise it runs passes over the workload's operations, one
operation after the other: always one whole pass, then on until the budget
is spent, and prints one JSON line with the samples.  With ``--trace 1`` it
alternates untraced and traced passes and reports per-layer self times and
counts.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MAX_DETAILS = 20


class Tally:
    """Per operation of a pass: whether any execution of it failed.

    ``attempted`` is the number of operations in a pass and ``failed`` the
    number of them that raised or answered wrong in any execution, so both
    depend on the seed only, not on how many passes fit into the run.
    """

    def __init__(self, ops):
        self.ops = ops
        self.first: dict[int, tuple] = {}  # id(op) -> (fingerprint, status, detail)
        self.seen: set[int] = set()  # positions executed at least once
        self.bad: dict[int, str] = {}  # position -> WRONG or KNOWN
        self.executions = 0
        self.details: Counter = Counter()

    @property
    def attempted(self) -> int:
        return len(self.seen)

    @property
    def failed(self) -> int:
        return len(self.bad)

    @property
    def unexpected(self) -> int:
        return sum(status == workloads.WRONG for status in self.bad.values())

    def record(self, i: int, answer, error: str | None) -> str:
        self.executions += 1
        self.seen.add(i)
        status, detail = self._judge(i, answer, error)
        if status != workloads.OK:
            if self.bad.get(i) != workloads.WRONG:
                self.bad[i] = status
            self.details[f"{status}: {detail}"] += 1
        return status

    def _judge(self, i, answer, error):
        if error is not None:
            return workloads.WRONG, f"raised {error}"
        op = self.ops[i]
        key = id(op)  # an operation may appear more than once in a pass
        try:
            # fingerprint first: a check may consume the answer (in-place Cholesky)
            fingerprint = op.fingerprint(answer)
            if key not in self.first:
                self.first[key] = (fingerprint, *op.check(answer))
            elif not workloads.same(fingerprint, self.first[key][0]):
                return workloads.WRONG, f"{op.kind}: answer changed between executions"
        except Exception as err:  # a check that raises is a failed check
            return workloads.WRONG, f"{op.kind}: check raised {type(err).__name__}: {err}"
        return self.first[key][1], self.first[key][2]


def run_pass(workload, tally: Tally, latencies: list, tracer=None, deadline=None) -> float:
    """Execute every operation once, or until ``deadline`` (perf_counter
    time) has passed; return the summed operation time."""
    total = 0.0
    for i, op in enumerate(workload.ops):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        args = op.prepare()
        if tracer is not None:
            tracer.active = True
            root = tracer.begin(tracing.ROOT)
        error = None
        t0 = time.perf_counter()
        try:
            answer = op.run(*args)
        except Exception as err:  # the loop must go on; the failure is counted
            answer, error = None, f"{type(err).__name__}: {err}"
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(root)
            tracer.active = False
        del args
        latencies.append(elapsed)
        total += elapsed
        tally.record(i, answer, error)
        del answer
    return total


def measure(workload, seconds: float) -> dict:
    """One whole pass, so that every operation is attempted and checked,
    then passes until ``seconds`` are spent; the last one may stop early."""
    tally = Tally(workload.ops)
    latencies: list[float] = []
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        run_pass(workload, tally, latencies, deadline=deadline if passes else None)
        passes += 1
    return {
        "passes": passes,
        "latencies": latencies,
        **_tally_fields(tally),
    }


def measure_traced(workload, seconds: float, tracer) -> dict:
    """Alternate untraced and traced passes; per-layer numbers per traced pass."""
    tally = Tally(workload.ops)
    latencies: list[float] = []
    plain_s, traced_s, per_pass = [], [], []
    start = time.perf_counter()
    while True:
        last = run_pass(workload, tally, latencies)
        plain_s.append(last)
        first_span, work_before = tracer.mark()
        last = run_pass(workload, tally, latencies, tracer)
        traced_s.append(last)
        self_s, calls = tracing.self_times(tracer.spans, first_span)
        work = Counter(tracer.work)
        work.subtract(work_before)
        per_pass.append((self_s, calls, dict(work)))
        if time.perf_counter() - start + plain_s[-1] + last > seconds:
            break
    counts_repeat = all(p[1:] == per_pass[0][1:] for p in per_pass)
    return {
        "passes": len(plain_s) + len(traced_s),
        "plain_pass_s": plain_s,
        "traced_pass_s": traced_s,
        "per_pass": per_pass,
        "counts_repeat_within_run": counts_repeat,
        **_tally_fields(tally),
    }


def _tally_fields(tally: Tally) -> dict:
    return {
        "attempted": tally.attempted,
        "executions": tally.executions,
        "failed": tally.failed,
        "unexpected": tally.unexpected,
        "details": dict(tally.details.most_common(MAX_DETAILS)),
    }


def runtime_meta() -> dict:
    import platform

    meta = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
    }
    try:
        import scipy

        meta["scipy"] = scipy.__version__
    except ImportError:
        meta["scipy"] = None
    return meta


def _blas_info() -> dict:
    import ctypes
    import os

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                break
    if info["threads"] is None:
        info["threads_env"] = {
            k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ
        }
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file for the span list of a traced run")
    args = parser.parse_args(argv)

    tracer = tracing.Tracer() if args.trace else None
    workload = workloads.build(args.workload, args.seed, tracer)
    try:
        for op in workload.warmup_ops():
            op.run(*op.prepare())
        if tracer is not None:
            tracer.install()
        print("READY", flush=True)
        if args.seconds <= 0:
            return 0
        if tracer is None:
            result = measure(workload, args.seconds)
        else:
            result = measure_traced(workload, args.seconds, tracer)
            if args.spans:
                tracer.dump(args.spans)
    finally:
        workload.cleanup()
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
    )
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["ops_per_pass"] = len(workload.ops)
    result["meta"] = runtime_meta()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
