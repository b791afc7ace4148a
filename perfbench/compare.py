"""Compare two sets of benchmark runs, or check the spread of one set.

    python3 perfbench/compare.py RUNS                 # spread of one set
    python3 perfbench/compare.py BASE NEW             # NEW against BASE

Each argument is a directory of run records written by ``run.py --out``,
or a file holding one record or a list of them (``perfbench/baseline.json``
holds the seed code's ten runs per workload). Only untraced runs count.
For every workload, event count and end-to-end metric of BENCHMARK.json
the helper prints each side's median and quartiles and the spread, the
distance between the quartiles as a share of the median.

With two sets it also prints the share of pairs the new set won (runs are
paired by seed, ties count for neither side) and a verdict:

* ``unresolved`` when either side's spread is wider than the metric's
  bound, unless every new run beats every base run;
* ``worse`` when the new median is worse than the base median by more
  than the bound;
* ``better`` when the new set wins at least nine tenths of the pairs and
  the medians differ by more than the base set's quartile distance;
* ``unchanged`` otherwise.

It also reports whether runs of the same workload, seed and size produced
the same output digest on both sides.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path: Path) -> dict[tuple[str, int], dict[int, dict]]:
    """Untraced run records keyed by (workload, events), then by seed. A
    file may hold one record or a list of them, as ``baseline.json`` does."""
    files = [path] if path.is_file() else sorted(path.glob("*.json"))
    runs: dict[tuple[str, int], dict[int, dict]] = defaultdict(dict)
    for file in files:
        records = json.loads(file.read_text("utf-8"))
        for record in records if isinstance(records, list) else [records]:
            if record.get("trace") == 0 and "metrics" in record:
                runs[(record["workload"], record["events"])][record["seed"]] = record
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def _values(by_seed: dict[int, dict], metric: str) -> dict[int, float]:
    return {seed: run["metrics"][metric]["value"] for seed, run in by_seed.items()}


def verdict(base: dict[int, float], new: dict[int, float], bound: float, higher: bool) -> tuple[str, float]:
    """The comparison verdict and the share of pairs the new set won."""
    sign = 1 if higher else -1
    seeds = sorted(set(base) & set(new))
    pairs = [(base[s], new[s]) for s in seeds] or list(zip(sorted(base.values()), sorted(new.values())))
    won = sum(1 for b, n in pairs if sign * (n - b) > 0) / len(pairs) if pairs else 0.0
    b_q1, b_med, b_q3 = quartiles(list(base.values()))
    _, n_med, _ = quartiles(list(new.values()))
    if higher:
        every_better = min(new.values()) > max(base.values())
    else:
        every_better = max(new.values()) < min(base.values())
    if max(spread(list(base.values())), spread(list(new.values()))) > bound and not every_better:
        return "unresolved", won
    if sign * (n_med - b_med) < -bound * abs(b_med):
        return "worse", won
    if won >= 0.9 and sign * (n_med - b_med) > b_q3 - b_q1:
        return "better", won
    return "unchanged", won


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sets", nargs="+", type=Path, metavar="RUNS")
    parser.add_argument("--benchmark", type=Path, default=BENCHMARK)
    args = parser.parse_args(argv)
    if len(args.sets) > 2:
        parser.error("give one or two sets of runs")
    metrics = json.loads(args.benchmark.read_text("utf-8"))["end_to_end"]
    sets = [load_runs(path) for path in args.sets]
    base = sets[0]
    new = sets[-1] if len(sets) == 2 else None

    for key in sorted(base):
        workload, events = key
        if new is not None and key not in new:
            print(f"{workload} events={events}: no runs in the new set")
            continue
        seeds = sorted(base[key])
        print(f"{workload} events={events} seeds={seeds}")
        for metric in metrics:
            name, bound, higher = metric["name"], metric["bound"], metric["better"] == "higher"
            b = _values(base[key], name)
            b_q1, b_med, b_q3 = quartiles(list(b.values()))
            line = (
                f"  {name:14s} base {b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}]"
                f" spread {spread(list(b.values())):.3f}"
            )
            if new is None:
                note = "ok" if spread(list(b.values())) < bound / 3 else "wider than bound/3"
                line += f" bound {bound} {note}"
            else:
                n = _values(new[key], name)
                n_q1, n_med, n_q3 = quartiles(list(n.values()))
                result, won = verdict(b, n, bound, higher)
                change = n_med / b_med - 1 if b_med else float("inf")
                line += (
                    f" | new {n_med:.6g} [{n_q1:.6g}, {n_q3:.6g}]"
                    f" spread {spread(list(n.values())):.3f} change {change:+.1%}"
                    f" won {won:.0%} {result}"
                )
            print(line)
        failed = sum(run["failed"] for run in base[key].values())
        if new is None:
            print(f"  failed jobs: {failed}")
            continue
        failed_new = sum(run["failed"] for run in new[key].values())
        common = sorted(set(base[key]) & set(new[key]))
        same = [s for s in common if base[key][s]["digest"] == new[key][s]["digest"]]
        differ = [s for s in common if s not in same]
        print(f"  failed jobs: base {failed}, new {failed_new}")
        print(f"  output digests: {len(same)} seeds identical, differ on {differ or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
