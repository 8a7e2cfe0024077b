"""Alternating pairs of benchmark runs between a parent and a changed checkout.

Usage (from anywhere)::

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workloads oneshot --seeds 1 3 --pairs 10 --seconds 20 --label oneshot_pairs

For each workload, each seed and each pair it runs ``bench/run.py --workload
W --seed S --seconds T --trace 0`` once in each checkout, one run after the
other: the parent first in even-numbered pairs, the change first in
odd-numbered ones. Before every run it deletes ``src/adiff/__pycache__`` in
both checkouts, so that no run reads byte code that another run compiled.
Each checkout runs its own ``bench/run.py`` on its own ``src``.

It writes ``BENCH_<label>_parent.json`` and ``BENCH_<label>_change.json``
into ``--out`` (default: the current directory). Each holds ``command``,
``side``, ``seeds`` (one per run), ``order`` (how the runs were taken) and
``runs``: each run's detail record from ``bench/run.py``, with its
``result`` and its ``pair`` number. While it runs it prints one line per pair;
at the end, per workload and seed, the median of each end-to-end metric on
each side and the number of pairs in which the change is better.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

COMMAND = "python3 bench/run.py --workload <workload> --seed <seed> --seconds <seconds> --trace 0"
#: End-to-end metrics and whether lower is better.
METRICS = {"setup_s": True, "cmd_ms_p50": True, "cmd_ms_p90": True, "cmds_per_s": False, "peak_rss_mb": True}


def run_once(tree: Path, workload: str, seed: int, seconds: float, trees: list[Path]) -> dict:
    """One bench/run.py run in ``tree``: its detail record with ``result``."""
    for each in trees:
        shutil.rmtree(each / "src" / "adiff" / "__pycache__", ignore_errors=True)
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True)
    detail, result = proc.stdout.strip().splitlines()[-2:]
    return {**json.loads(detail), "result": json.loads(result)}


def metric(run: dict, name: str) -> float:
    return run["result"]["metrics"][name]["value"]


def summary(parent: list[dict], change: list[dict]) -> str:
    """Per metric: the medians of both sides and the pairs the change wins."""
    parts = []
    for name, lower in METRICS.items():
        a, b = [metric(r, name) for r in parent], [metric(r, name) for r in change]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        ma, mb = statistics.median(a), statistics.median(b)
        parts.append(f"{name} {ma:.5g} -> {mb:.5g} ({(mb - ma) / ma:+.1%}, {wins}/{len(a)} better)")
    return "; ".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--label", required=True, help="names the records BENCH_<label>_{parent,change}.json")
    parser.add_argument("--out", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for workload in args.workloads:
        for seed in args.seeds:
            first = len(runs["parent"])
            for pair in range(args.pairs):
                sides = ("change", "parent") if pair % 2 else ("parent", "change")
                for side in sides:
                    run = run_once(trees[side], workload, seed, args.seconds, list(trees.values()))
                    runs[side].append({**run, "pair": pair})
                p, c = runs["parent"][-1], runs["change"][-1]
                same = "same stdout" if p["stdout_sha256"] == c["stdout_sha256"] else "STDOUT DIFFERS"
                print(f"{workload} seed {seed} pair {pair}: cmd_ms_p50 {metric(p, 'cmd_ms_p50'):.5g} -> "
                      f"{metric(c, 'cmd_ms_p50'):.5g}, cmds_per_s {metric(p, 'cmds_per_s'):.5g} -> "
                      f"{metric(c, 'cmds_per_s'):.5g}, {same}", flush=True)
            print(f"{workload} seed {seed}: " + summary(runs["parent"][first:], runs["change"][first:]), flush=True)
    order = (f"{', '.join(args.workloads)}: {args.pairs} alternating {args.seconds:g}-s pairs at seed"
             f"{'s' if len(args.seeds) > 1 else ''} {', '.join(map(str, args.seeds))}, the change first in "
             "odd-numbered pairs; src/adiff/__pycache__ deleted in both trees before every run")
    for side, side_runs in runs.items():
        record = {"command": COMMAND, "side": side, "seeds": [r["seed"] for r in side_runs], "order": order,
                  "runs": side_runs}
        path = args.out / f"BENCH_{args.label}_{side}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
