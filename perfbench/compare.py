"""Compare benchmark runs of a parent commit and a change.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are directories (or files) of records that run.py saved
under perfbench/out/results/; untraced records only are used.  Run the two
sides alternately (parent, change, parent, change, ...) with the same
seeds and --seconds, and copy each side's records into its own directory.

For every workload and end-to-end metric it prints each side's median and
quartiles, the share of pairs the change won (i-th parent run against the
i-th change run, ties counting for neither), and a verdict:

  improved    the change won at least 9 of 10 pairs and the medians differ,
              in its favour, by more than the parent's quartile distance;
  no worse    the change's median is not worse than the parent's by more
              than the metric's bound in BENCHMARK.json;
  worse       it is worse by more than the bound;
  unresolved  the parent's own spread (quartile distance over median) is
              wider than the bound, unless every change run reads better
              than every parent run.

A gain does not count when more operations failed than at the parent.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: Path) -> dict[str, list[dict]]:
    """workload -> untraced records, in the order they were run."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for f in files:
        if f.name.endswith(".spans.json"):
            continue
        record = json.loads(f.read_text(encoding="utf-8"))
        if record.get("trace") == 0:
            records.append((f.stem.rsplit("-", 1)[-1], record))
    runs: dict[str, list[dict]] = {}
    for _, record in sorted(records, key=lambda item: int(item[0])):
        runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better: str, bound: float, more_failures: bool):
    sign = 1.0 if better == "lower" else -1.0  # positive gain = change better
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    gain = sign * (pm - cm)
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if not more_failures and pairs and wins >= 0.9 * len(pairs) and gain > p3 - p1:
        result = "improved"
    elif pm and (p3 - p1) / abs(pm) > bound and not all_better:
        result = "unresolved"
    elif -gain > bound * abs(pm):
        result = "worse"
    else:
        result = "no worse"
    return wins, len(pairs), result


def fail_share(records) -> float:
    attempted = sum(r["result"]["attempted"] for r in records)
    return sum(r["result"]["failed"] for r in records) / max(1, attempted)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    parent, change = load_runs(Path(argv[0])), load_runs(Path(argv[1]))
    header = f"{'workload':<12} {'metric':<17} {'parent median [q1, q3]':>34} " \
             f"{'change median [q1, q3]':>34} {'won':>6}  verdict"
    print(header)
    for workload in [w for w in parent if w in change]:
        more_failures = fail_share(change[workload]) > fail_share(parent[workload])
        for name, spec in metrics.items():
            pv = [r["result"]["metrics"][name]["value"] for r in parent[workload]]
            cv = [r["result"]["metrics"][name]["value"] for r in change[workload]]
            wins, pairs, result = verdict(pv, cv, spec["better"], spec["bound"], more_failures)
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            print(
                f"{workload:<12} {name:<17} {pm:>12.4g} [{p1:>9.4g}, {p3:>9.4g}] "
                f"{cm:>12.4g} [{c1:>9.4g}, {c3:>9.4g}] {wins:>2}/{pairs:<3}  {result}"
            )
        if more_failures:
            print(f"{workload:<12} more operations failed than at the parent: no gain counts")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
