#!/usr/bin/env python3
"""Paired benchmark runs of a parent tree and a change tree.

    python tools/bench_pair.py PARENT CHANGE --workload W --pairs N --seed0 S [--out BENCH.json]

Pair k runs ``perfbench/run.py --workload W --seed S+k --seconds R --trace 0``
once in each tree, R being ``run_seconds`` of the parent's BENCHMARK.json.
Each run is a fresh process started in its tree, and the side that runs
first is drawn at random for each pair (from S, so a rerun repeats the
order).  The last line of each run's output is its JSON result.

For each end-to-end metric the script prints both sides' medians and
quartiles, the number of pairs in which the change is better, and three
verdicts.  ``gain``: the change is better in at least 9 of 10 pairs (ties
count for neither side) and the medians differ, in the change's favour, by
more than the parent's quartile spread.  ``within bound``: the change's
median is no worse than the parent's by more than the metric's bound in
BENCHMARK.json, a fraction of the parent's median.  ``unresolved``: the
parent's quartile spread is wider than that bound, so the runs cannot tell
a change within it from none, unless every change run is better than every
parent run; such a metric is unresolved, not unchanged.  It also prints the exact
two-sided sign-test p-value of the pairs the change wins against those it
loses, ties dropped.  A peak_rss_mb whose medians differ by less than
HEAP_PLACEMENT_MB is marked ``heap placement``: at the benchmark's sizes the
peak follows where the heap lands, so such a move, even in 10 of 10 pairs,
shows no change in what a run holds.  Failed operations are summed per side.  With
``--out`` the workload's entry is written into that JSON file, beside the
entries of other workloads already there; a file there that is not a JSON
object is refused (exit 2) before the first pair runs.

The two trees must be of one kind: two git checkouts, or two plain copies.
A checkout and a copy are refused: one such comparison read a 13.5% run_s
gap that two comparisons of like trees did not reproduce.  The script
writes only ``--out``; each run writes its own ``.perfbench_out/`` in its
tree.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9
HEAP_PLACEMENT_MB = 0.2


def tree_kind(root: Path) -> str:
    """'git' for a git checkout, else 'copy'; ValueError if ``root`` holds no benchmark."""
    if not (root / "perfbench" / "run.py").is_file() or not (root / "BENCHMARK.json").is_file():
        raise ValueError(f"{root}: no perfbench/run.py and BENCHMARK.json")
    return "git" if (root / ".git").exists() else "copy"


def last_json(stdout: str) -> dict:
    """The JSON object on the last nonblank line of a run's output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``root``: its last-line JSON result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: run.py exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return last_json(proc.stdout)


def quartiles(xs: list[float]) -> list[float]:
    return statistics.quantiles(xs, n=4)[::2] if len(xs) > 1 else [xs[0], xs[0]]


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of ``wins`` against ``losses``."""
    n = wins + losses
    return min(1.0, 2 * sum(math.comb(n, i) for i in range(min(wins, losses) + 1)) / 2**n)


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Medians, quartiles, pairs won by the change, the sign-test p-value and
    the three verdicts of one metric over paired runs (``parent[k]`` and
    ``change[k]`` are pair k)."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change, strict=True))
    losses = sum(sign * (p - c) < 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q = quartiles(parent)
    return {
        "parent": parent, "change": change,
        "parent_median": p_med, "change_median": c_med,
        "parent_quartiles": p_q, "change_quartiles": quartiles(change),
        "change_better_in": wins, "pairs": len(parent), "sign_test_p": sign_test_p(wins, losses),
        "gain": wins >= WIN_SHARE * len(parent) and sign * (p_med - c_med) > p_q[1] - p_q[0],
        "within_bound": sign * (c_med - p_med) <= bound * abs(p_med),
        "unresolved": p_q[1] - p_q[0] > bound * abs(p_med)
                      and not all(sign * (p - c) > 0 for p in parent for c in change),
    }


def compare(parent: Path, change: Path, workload: str, pairs: int, seed0: int, run=run_side) -> dict:
    """Run the pairs and summarize every end-to-end metric of the parent's
    BENCHMARK.json; ``run(root, workload, seed, seconds)`` gives one run's result."""
    kinds = tree_kind(parent), tree_kind(change)
    if kinds[0] != kinds[1]:
        raise ValueError(f"trees of different kinds: parent is a {kinds[0]}, change is a {kinds[1]}")
    spec = json.loads((parent / "BENCHMARK.json").read_text())
    rng = random.Random(seed0)
    runs, firsts = {"parent": [], "change": []}, []
    for k in range(pairs):
        order = ["parent", "change"] if rng.random() < 0.5 else ["change", "parent"]
        firsts.append(order[0])
        for side in order:
            runs[side].append(run(parent if side == "parent" else change, workload, seed0 + k, spec["run_seconds"]))
    metrics = {
        m["name"]: {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                    **summarize(*([r["metrics"][m["name"]]["value"] for r in runs[side]] for side in ("parent", "change")),
                                m["better"], m["bound"])}
        for m in spec["end_to_end"]
    }
    if "peak_rss_mb" in metrics:
        rss = metrics["peak_rss_mb"]
        rss["heap_placement"] = abs(rss["change_median"] - rss["parent_median"]) < HEAP_PLACEMENT_MB
    return {
        "seeds": [seed0, seed0 + pairs - 1], "first_side": firsts, "tree_kind": kinds[0],
        "operations": {side: {"attempted": sum(r["attempted"] for r in rs), "failed": sum(r["failed"] for r in rs)}
                       for side, rs in runs.items()},
        "metrics": metrics,
    }


def report_lines(workload: str, result: dict) -> list[str]:
    lines = [f"# {workload}: {len(result['first_side'])} pairs, seeds {result['seeds'][0]}..{result['seeds'][1]}, "
             f"{result['tree_kind']} trees"]
    for name, m in result["metrics"].items():
        (p1, p3), (c1, c3) = m["parent_quartiles"], m["change_quartiles"]
        lines.append(
            f"{workload} {name}: parent {m['parent_median']:.6g} [{p1:.6g}, {p3:.6g}] -> "
            f"change {m['change_median']:.6g} [{c1:.6g}, {c3:.6g}] {m['unit']}, "
            f"change better in {m['change_better_in']}/{m['pairs']} (sign test p = {m['sign_test_p']:.3g}), "
            f"gain {'yes' if m['gain'] else 'no'}, within bound {'yes' if m['within_bound'] else 'NO'}, "
            f"unresolved {'YES' if m['unresolved'] else 'no'}"
            + (f", heap placement (median move under {HEAP_PLACEMENT_MB} MB)" if m.get("heap_placement") else "")
        )
    ops = result["operations"]
    lines.append(f"{workload} failed: parent {ops['parent']['failed']}/{ops['parent']['attempted']}, "
                 f"change {ops['change']['failed']}/{ops['change']['attempted']}")
    return lines


def read_out(path: Path) -> dict:
    """The JSON object in ``path``, or {} if there is no such file; ValueError
    naming the file if it holds anything else."""
    if not path.exists():
        return {}
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    try:
        doc = read_out(args.out) if args.out else {}
        result = compare(args.parent.resolve(), args.change.resolve(), args.workload, args.pairs, args.seed0)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report_lines(args.workload, result)))
    if args.out:
        doc.setdefault("protocol", f"tools/bench_pair.py: perfbench/run.py --trace 0 in each tree, one fresh "
                                   f"process per run, first side random per pair; Python {platform.python_version()}")
        doc.setdefault("workloads", {})[args.workload] = result
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
