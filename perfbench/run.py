"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/fspt``.  With ``--trace 0``
it starts three worker processes one after the other; each one imports
fspt, generates the inputs from the seed and warms up, and the median of
their start-to-ready times is ``setup_s``.  The last one then runs the
workload in a closed loop for about S seconds.  With ``--trace 1`` one
worker alternates untraced and traced passes and the run reports per-layer
self times and counts instead.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it carries machine and code metadata, and the full record
(samples, failure details, metadata) is saved under perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "fspt"
RESULTS = HERE / "out" / "results"

WORKLOADS = ("stack_law", "cohomology", "fmps_oracle", "cli_cold")
# one BLAS thread: on a few shared cores a second thread would wait on
# whatever else runs there, and the timings would follow that load
WORKER_ENV = {**os.environ, **{k: "1" for k in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
SETUPS = 3
DEADLINE_S = 170.0

# end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "pass_rate": "ratio",
    "peak_rss_mb": "MB",
}

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402  (standard library only)

# per-layer metrics: name -> unit
PER_LAYER = {}
for _name in tracing.SPAN_NAMES:
    PER_LAYER[f"{_name}.self_s"] = "s"
    PER_LAYER[f"{_name}.calls"] = "count"
PER_LAYER.update({
    "linalg.svd_work": "mnk.computed",
    "smith.matrix_entries": "entries.computed",
    "fmps.rho_bytes": "B.computed",
    "cli.import_s": "s",
    "op.self_s": "s",
    "trace.overhead": "ratio",
})


class WorkerError(RuntimeError):
    pass


def run_worker(args, seconds: float, deadline: float, spans: Path | None = None):
    """Start one worker; return (set-up seconds, parsed result or None)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(args.trace),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=WORKER_ENV)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise WorkerError(f"worker exited with code {code} before finishing")
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def per_op_medians(result) -> list:
    """Median latency of each operation of a pass over the run's passes.

    A stretch of the run slowed by other load on the machine hits fewer
    than half of an operation's executions unless it lasts half the run,
    so these medians, unlike the pooled samples, do not follow it.  The
    samples are in execution order and the last pass may be cut short.
    """
    lat, n = result["latencies"], result["ops_per_pass"]
    return [statistics.median(lat[i::n]) for i in range(n)]


def end_to_end(setups, result) -> dict:
    lat = per_op_medians(result)
    values = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": len(lat) / sum(lat),
        "latency_p50_ms": 1000.0 * percentile(lat, 50),
        "latency_p90_ms": 1000.0 * percentile(lat, 90),
        "pass_rate": 1.0 - result["failed"] / result["attempted"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}


def per_layer(result) -> dict:
    passes = result["per_pass"]
    values = {}
    for name in tracing.SPAN_NAMES + ["cli.import", tracing.ROOT]:
        self_s = statistics.fmean(p[0].get(name, 0.0) for p in passes)
        if name == "cli.import":
            values["cli.import_s"] = self_s
        elif name == tracing.ROOT:
            values["op.self_s"] = self_s
        else:
            values[f"{name}.self_s"] = self_s
            values[f"{name}.calls"] = passes[0][1].get(name, 0)
    for counter in tracing.WORK_COUNTERS:
        values[counter] = passes[0][2].get(counter, 0)
    values["trace.overhead"] = (
        statistics.median(result["traced_pass_s"]) / statistics.median(result["plain_pass_s"]) - 1.0
    )
    return {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}


def layer_table(metrics: dict) -> str:
    """Human-readable per-layer self times, largest first."""
    rows = sorted(
        ((v["value"], k) for k, v in metrics.items() if v["unit"] == "s" and v["value"]),
        reverse=True,
    )
    lines = [f"{'self time per traced pass':<48} {'s':>9} {'calls':>7}"]
    for value, name in rows:
        key = name.replace(".self_s", ".calls")
        calls = metrics[key]["value"] if key != name and key in metrics else ""
        lines.append(f"{name:<48} {value:>9.4f} {calls:>7}")
    lines.append(f"{'trace.overhead':<48} {metrics['trace.overhead']['value']:>9.3f}")
    return "\n".join(lines)


def code_meta() -> dict:
    files = sorted(SRC.glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_fspt_lines": lines,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "__init__.py").is_file():
        print(f"run.py: no fspt sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    RESULTS.mkdir(parents=True, exist_ok=True)
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    try:
        if args.trace:
            spans = RESULTS / f"{stamp}.spans.json"
            setup_s, result = run_worker(args, args.seconds, deadline, spans)
            setups = [setup_s]
            metrics = per_layer(result)
        else:
            setups = []
            for i in range(SETUPS):
                measuring = i == SETUPS - 1
                setup_s, result = run_worker(args, args.seconds if measuring else 0, deadline)
                setups.append(setup_s)
            metrics = end_to_end(setups, result)
    except WorkerError as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1

    meta = {**code_meta(), **result.pop("meta")}
    line = {
        "correct": result["unexpected"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setups_s": setups, "meta": meta, "result": line,
        "samples": result["executions"], "worker": result,
    }
    (RESULTS / f"{stamp}.json").write_text(json.dumps(record), encoding="utf-8")
    if result["details"]:
        print(f"run.py: failures: {json.dumps(result['details'])}", file=sys.stderr)
    if args.trace:
        print(layer_table(metrics))
    print(json.dumps({"meta": meta, "samples": record["samples"], "passes": result["passes"]}))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
