"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Checks that:
  1. every metric named in BENCHMARK.json is printed, with its unit, by
     run.py on every workload, untraced and traced (one-second runs);
  2. the traced runs record the calls the benchmark makes itself, and the
     computed work counts (*.calls, linalg.svd_work, smith.matrix_entries,
     fmps.rho_bytes) repeat exactly across two traced runs with one seed;
  3. a planted wrong expected answer raises the failure count, so the
     correctness checks are live;
  4. traced and untraced runs give identical answers.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 7
COUNTS = tuple(tracing.WORK_COUNTERS)
# calls the benchmark makes itself: these prove the wrappers also replaced
# the names the benchmark imported, not only those inside fspt
TOP_LEVEL_CALLS = {
    "stack_law": ["system.stack_systems.calls", "system.compute_index.calls", "invariant.index_equal.calls"],
    "cohomology": ["group.validate_group.calls", "cocycle.cohomologous.calls"],
    "fmps_oracle": ["fmps.density_matrix.calls", "fmps.expectation.calls", "fmps.fmps_index.calls",
                    "fmps.even_mps.calls", "fmps.odd_mps.calls"],
    "cli_cold": ["serialize.index_to_json.calls", "system.compute_index.calls", "cli.import_s"],
}


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=180,
    )
    if proc.returncode != 0:
        raise AssertionError(f"run.py {workload} trace {trace} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_contract(problems: list) -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for spec in bench["workloads"]:
        name = spec["name"]
        traced = []
        for trace, section in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
            line = run_bench(name, trace)
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name}: result keys {sorted(line)}")
            if not line["attempted"] >= 1:
                problems.append(f"{name}: nothing attempted")
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v.get("unit") for k, v in line["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace {trace}: metrics/units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want.items()))[:6]}")
            if not all(isinstance(v.get("value"), (int, float)) for v in line["metrics"].values()):
                problems.append(f"{name} trace {trace}: a metric value is not a number")
            if trace:
                traced.append(line["metrics"])
        missing = [k for k in TOP_LEVEL_CALLS[name] if not traced[0][k]["value"]]
        if missing:
            problems.append(f"{name}: traced run recorded no {missing}")
        counts = {k: v["value"] for k, v in traced[0].items() if k.endswith(".calls") or k in COUNTS}
        again = {k: v["value"] for k, v in traced[1].items() if k.endswith(".calls") or k in COUNTS}
        if counts != again:
            diff = {k: (counts[k], again[k]) for k in counts if counts[k] != again[k]}
            problems.append(f"{name}: work counts differ across two traced runs: {diff}")
        print(f"contract and count repeat: {name} checked", flush=True)


def check_planted(problems: list) -> None:
    """A positive pair declared negative must be counted as a wrong answer."""
    group = workloads.klein()
    twist = workloads.trivial_hom(group)
    modulus = 4 * group.n
    homs = workloads.all_z2_homs(group)
    e1 = workloads._sign_exponents(homs[1], homs[2], modulus)
    b = np.array([0, 2, 4, 6])  # on the default lattice: the library answers True
    e2 = (e1 + workloads._coboundary_exponents(b, group, twist, modulus)) % modulus
    honest = workloads._cohomology_op("planted", group, twist, e1, e2, modulus, True, b)
    planted = workloads._cohomology_op("planted", group, twist, e1, e2, modulus, False, b)
    for ops, want_failed in (([honest], 0), ([honest, planted], 1)):
        tally = worker.Tally(ops)
        worker.run_pass(workloads.Workload("planted", ops), tally, [])
        if tally.failed != want_failed or tally.unexpected != want_failed:
            problems.append(f"planted answer: failed {tally.failed}, want {want_failed}")
    print("planted wrong answer: checked", flush=True)


def answers(workload) -> list:
    out = []
    for op in workload.warmup_ops():
        out.append(op.fingerprint(op.run(*op.prepare())))
    return out


def check_traced_answers(problems: list) -> None:
    tracer = tracing.Tracer()
    built = {name: workloads.build(name, SEED, tracer) for name in workloads.BUILDERS}
    try:
        plain = {name: answers(w) for name, w in built.items()}
        tracer.install()
        tracer.active = True
        root = tracer.begin(tracing.ROOT)
        traced = {name: answers(w) for name, w in built.items()}
        tracer.end(root)
        tracer.active = False
    finally:
        for w in built.values():
            w.cleanup()
    for name in built:
        if not workloads.same(plain[name], traced[name]):
            problems.append(f"{name}: traced and untraced answers differ")
    if len(tracer.spans) < 10:
        problems.append("tracing recorded almost no spans")
    print("traced vs untraced answers: checked", flush=True)


def main() -> int:
    problems: list[str] = []
    check_planted(problems)
    check_traced_answers(problems)
    check_contract(problems)
    for p in problems:
        print("FAIL:", p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
