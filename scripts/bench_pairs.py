"""Run the benchmark of two checkouts in pairs and compare their end-to-end metrics.

Usage:

    python3 scripts/bench_pairs.py PARENT CHANGE --workload planar-fit --seeds 1-10,7919 --seconds 25

PARENT and CHANGE are the roots of two frenetkit checkouts.  Each seed makes
one pair: ``perfbench/run.py --workload W --seed N --seconds S --trace 0`` of
one checkout, then of the other, each from its own root and on its own
sources.  The pairs alternate which side runs first (PARENT in the first
pair), because the side that runs second reads ``setup_s`` up to about 20 %
high.  The script only runs ``perfbench/run.py`` and reads its last line, the
JSON result; it imports nothing from ``perfbench/``.

Prints each run's result line as it ends, then one row per end-to-end metric
of CHANGE's ``BENCHMARK.json``: each side's median and quartiles over the
pairs, the change of the median, and the pairs the change won (ties count
for neither).  The verdict is ``gain`` when at least 10 pairs ran, the change
won at least 9 of every 10 and its median beats the parent's by more than the
distance between the parent's quartiles, ``worse`` when its median is worse
than the parent's by more than the metric's bound, and ``-`` otherwise.  The numbers
gate nothing: the exit status is 0 when every run passed its output checks,
1 when a run failed or printed no result, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list:
    """Seeds from a list like ``1-10,7919``."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError("no seeds")
    return seeds


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="root of the parent checkout")
    p.add_argument("change", type=Path, help="root of the changed checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="comma-separated seeds and ranges, such as 1-10,7919")
    p.add_argument("--seconds", type=float, required=True)
    args = p.parse_args(argv)
    try:
        args.seeds = parse_seeds(args.seeds)
    except ValueError:
        p.error(f"--seeds: expected a list like 1-10,7919, got {args.seeds!r}")
    for root in (args.parent, args.change):
        if not (root / "perfbench" / "run.py").is_file():
            p.error(f"no perfbench/run.py under {root}")
    return args


def run(root: Path, workload: str, seed: int, seconds: float):
    """The result of one benchmark run, or None when it failed or printed none."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None:
        print(f"# run failed with exit status {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return None
    return result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(metric: dict, runs: dict) -> str:
    """One report row: each side's median [q1, q3], the change, the pairs won and the verdict."""
    name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
    pairs = [(p[name]["value"], c[name]["value"]) for p, c in zip(*runs.values())]
    parent, change = ([pair[i] for pair in pairs] for i in (0, 1))
    mid = {side: statistics.median(v) for side, v in zip(SIDES, (parent, change))}
    quart = {side: quartiles(v) for side, v in zip(SIDES, (parent, change))}
    won = sum(sign * (c - p) > 0.0 for p, c in pairs)
    better = sign * (mid["change"] - mid["parent"])
    gain = len(pairs) >= 10 and won >= 0.9 * len(pairs) and better > quart["parent"][1] - quart["parent"][0]
    worse = better < -metric["bound"] * abs(mid["parent"])
    cells = [f"{mid[side]:.4g} [{quart[side][0]:.4g}, {quart[side][1]:.4g}]" for side in SIDES]
    delta = 100.0 * (mid["change"] / mid["parent"] - 1.0) if mid["parent"] else float("nan")
    verdict = "gain" if gain else "worse" if worse else "-"
    return (f"{name:<12} {metric['unit']:<4} {cells[0]:<32} {cells[1]:<32} {delta:+7.1f} %  "
            f"{won}/{len(pairs):<5} {verdict}")


def main(argv=None) -> int:
    args = parse_args(argv)
    roots = dict(zip(SIDES, (args.parent, args.change)))
    runs = {side: [] for side in SIDES}
    attempted, failed, broken = dict.fromkeys(SIDES, 0), dict.fromkeys(SIDES, 0), False
    for i, seed in enumerate(args.seeds):
        results = {}
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            results[side] = run(roots[side], args.workload, seed, args.seconds)
            print(f"# pair {i + 1} seed {seed} {side}: {json.dumps(results[side])}", flush=True)
        if None in results.values():
            broken = True
            continue
        for side, result in results.items():
            runs[side].append(result["metrics"])
            attempted[side] += result["attempted"]
            failed[side] += result["failed"]
            broken = broken or not result["correct"]
    declared = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    print(f"{args.workload}, seeds {','.join(map(str, args.seeds))}, --seconds {args.seconds:g}: "
          f"{len(runs['change'])} pairs; failed ops parent {failed['parent']}/{attempted['parent']}, "
          f"change {failed['change']}/{attempted['change']}")
    print(f"{'metric':<12} {'unit':<4} {'parent median [q1, q3]':<32} {'change median [q1, q3]':<32} "
          f"{'change':>9}  {'won':<7} verdict")
    if runs["change"]:
        for metric in declared:
            if all(metric["name"] in r for side in SIDES for r in runs[side]):
                print(compare(metric, runs))
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
