"""Compare benchmark results of a base commit and a change.

    python3 bench/compare.py BASE_DIR CHANGE_DIR

Each directory holds ``result.json`` files written by ``run.py --trace 0``
(any depth below it), one per run: ideally ten or more seeds per workload,
with base and change run in alternating order. Runs are paired by
(workload, seed). Each (end-to-end metric, workload) pair is marked, with the
bound and direction declared in ``BENCHMARK.json``:

* ``better``     - the change wins at least 9 in 10 pairs (ties count for
                   neither) and the medians differ by more than the base
                   runs' own spread (the distance between their quartiles);
* ``worse``      - the change's median is worse than the base median by more
                   than the bound;
* ``unresolved`` - the base spread is wider than the bound, unless every
                   change run reads better than every base run; also when
                   there are fewer than ten pairs;
* ``same``       - none of the above: within the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10


def load(directory: Path) -> dict:
    """(workload, seed) -> metrics of each untraced result under ``directory``."""
    runs = {}
    for path in sorted(Path(directory).rglob("result.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        if result["trace"] == 0:
            runs[(result["workload"], result["seed"])] = {
                k: m["value"] for k, m in result["metrics"].items()}
    return runs


def verdict(base: list[float], change: list[float], higher: bool,
            bound: float) -> str:
    sign = 1.0 if higher else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    q1, med_base, q3 = statistics.quantiles(base, n=4)
    med_change = statistics.median(change)
    spread = (q3 - q1) / abs(med_base)
    gain = sign * (med_change - med_base) / abs(med_base)
    all_better = (min(change) > max(base)) if higher else (max(change) < min(base))
    if len(base) < MIN_PAIRS:
        return "unresolved"
    if wins >= 0.9 * len(base) and abs(med_change - med_base) > q3 - q1:
        return "better"
    if spread > bound and not all_better:
        return "unresolved"
    if gain < -bound:
        return "worse"
    return "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    config = json.loads((Path(__file__).resolve().parent.parent
                         / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, change = load(args.base), load(args.change)
    keys = sorted(set(base) & set(change))
    workloads = sorted({w for w, _ in keys})
    if not keys:
        print("no (workload, seed) pairs in common", file=sys.stderr)
        return 2
    worse = False
    print(f"{'workload':14s} {'metric':14s} {'pairs':>5s} {'base p50':>12s} "
          f"{'change p50':>12s} {'delta':>8s}  verdict")
    for workload in workloads:
        seeds = [s for w, s in keys if w == workload]
        for metric in config["end_to_end"]:
            name = metric["name"]
            b = [base[(workload, s)][name] for s in seeds]
            c = [change[(workload, s)][name] for s in seeds]
            if len(b) < 2:
                mark = "unresolved"
            else:
                mark = verdict(b, c, metric["better"] == "higher",
                               metric["bound"])
            worse |= mark == "worse"
            mb, mc = statistics.median(b), statistics.median(c)
            print(f"{workload:14s} {name:14s} {len(b):5d} {mb:12.5g} "
                  f"{mc:12.5g} {(mc - mb) / abs(mb):+8.2%}  {mark}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
