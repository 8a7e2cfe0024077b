"""adiff CLI benchmark: one seeded workload per process, closed loop, one client.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload grid --seed 1 --seconds 20 --trace 0

The workload's commands are generated from ``--seed`` and run in-process
through ``adiff.cli.main(argv)`` with stdout and stderr captured, one after
another, in passes over the whole list. Pass 0 warms up and captures the
outputs that are checked; timed passes follow until ``--seconds`` have
passed, and every pass must reproduce pass 0 byte for byte. ``attempted``
and ``failed`` count commands, each once however many passes ran it, so
they depend on the seed alone.

Timings are normalised for the speed of the machine at the moment they are
taken. A fixed pure-Python calibration loop runs between every two commands,
and each time is scaled by ``CAL_REF_S`` over the mean of the two
calibrations around it. A reported millisecond is therefore a millisecond
on a machine that runs the calibration loop in ``CAL_REF_S``. On shared
hosts whose speed drifts by tens of percent within a minute this keeps
runs comparable; see README.md.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` timed passes alternate between untraced and traced and
the line carries the per-layer metrics. The line before it is a detail
record (hashes, pass counts, failures by kind), also written with the
traced spans under ``bench/out/``. The exit code is 0 whenever a result is
printed; it is 2 when the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import IDENTITY_NAMES, WORKLOADS, generate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Reference duration of one calibration loop; timings are scaled to it.
CAL_REF_S = 0.0015
#: Fresh interpreters started to measure cold start (after one warm-up).
SETUP_REPS = 9
SETUP_ARGV = ["eval", "--expr", "1", "--t", "0.5"]
SETUP_EXPECTED = "t=0.5 value=0 imag=0 terms_used=0 residual=0\n"

_CHILD = r"""
import contextlib, io, sys, time
t0 = time.perf_counter()
import adiff.cli
t1 = time.perf_counter()
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    rc = adiff.cli.main(sys.argv[1:])
sys.stdout.write(f"{(t1 - t0) * 1e3!r} {rc}\n{buf.getvalue()}")
"""


# ------------------------------------------------------------ calibration


class _Node:
    __slots__ = ("op", "a", "b")

    def __init__(self, op, a=None, b=None):
        self.op, self.a, self.b = op, a, b


_CAL_TREE = _Node("+", _Node("*", _Node("t"), _Node("t")), _Node("*", _Node("c"), _Node("t")))


def _cal_eval(node, t):
    op = node.op
    if op == "t":
        return t
    if op == "c":
        return 3.0
    left, right = _cal_eval(node.a, t), _cal_eval(node.b, t)
    return left + right if op == "+" else left * right


_CAL_KEYS = [i * 0.37 for i in range(2048)]


def calibrate() -> float:
    """Seconds for a fixed mix like the program's: a tree walk, complex
    accumulation into a float-keyed memo, math and random calls, float
    formatting and an argparse build-and-parse. It never calls adiff."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(300):
        acc += _cal_eval(_CAL_TREE, i * 0.25)
    w, z = 1.0 + 0j, 0j
    memo = {}
    for k in _CAL_KEYS[::4]:
        memo[k] = w
        z += w * k
        w *= 0.9 + 0.1j
    for j in range(0, len(_CAL_KEYS), 3):
        z += memo.get(_CAL_KEYS[j // 4 * 4], 0j)
    rng = random.Random(7)
    for _ in range(150):
        x = rng.uniform(0.5, 20.0)
        acc += math.log(x) + math.exp(-x) + math.sin(x)
    [format(i / 7.0, ".17g") for i in range(60)]
    parser = argparse.ArgumentParser(prog="cal")
    sub = parser.add_subparsers(dest="cmd")
    for name in ("a", "b", "c"):
        p = sub.add_parser(name)
        p.add_argument("--x", type=float)
        p.add_argument("--y", default="1")
    parser.parse_args(["b", "--x", "2.5"])
    return time.perf_counter() - t0


# ------------------------------------------------------------ set-up


def measure_setup() -> tuple[list[float], list[float]]:
    """Normalised cold-start seconds and in-child import ms, one per rep."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", _CHILD, *SETUP_ARGV]
    setups, imports = [], []
    for rep in range(SETUP_REPS + 1):
        before = calibrate()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120, cwd=ROOT)
        elapsed = time.perf_counter() - t0
        scale = CAL_REF_S / ((before + calibrate()) / 2)
        head, _, out = proc.stdout.partition("\n")
        if proc.returncode != 0 or head.split(" ")[1:] != ["0"] or out != SETUP_EXPECTED:
            raise RuntimeError(f"cold-start command failed: {proc.stdout!r} {proc.stderr[-500:]!r}")
        if rep:  # rep 0 warms the byte-code cache
            setups.append(elapsed * scale)
            imports.append(float(head.split(" ")[0]) * scale)
    return setups, imports


# ------------------------------------------------------------ the loop


class Outcome:
    __slots__ = ("rc", "out", "err", "exc")

    def __init__(self, rc, out, err, exc):
        self.rc, self.out, self.err, self.exc = rc, out, err, exc

    def key(self):
        return (self.rc, self.out, self.exc)


def run_pass(cmds, main, on_command=None) -> tuple[list[Outcome], list[float]]:
    """Run every command once; return outcomes and normalised seconds."""
    outcomes, times = [], []
    before = calibrate()
    for i, cmd in enumerate(cmds):
        out, err = io.StringIO(), io.StringIO()
        rc = exc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = main(list(cmd.argv))
            except Exception as e:  # an escaped exception is a failed command
                exc = type(e).__name__
            elapsed = time.perf_counter() - t0
        after = calibrate()
        scale = CAL_REF_S / ((before + after) / 2)
        before = after
        outcomes.append(Outcome(rc, out.getvalue(), err.getvalue(), exc))
        times.append(elapsed * scale)
        if on_command is not None:
            on_command(i, scale)
    return outcomes, times


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# ------------------------------------------------------------ per-layer


class LayerTotals:
    """Tracer aggregates folded per command, times scaled by that command's factor."""

    def __init__(self):
        self.stats: dict[str, list[float]] = {}
        self.evals: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.commands = 0

    def copy(self) -> "LayerTotals":
        other = LayerTotals()
        other.stats = {k: list(v) for k, v in self.stats.items()}
        other.evals, other.counters, other.commands = dict(self.evals), dict(self.counters), self.commands
        return other

    def fold(self, tracer, scale: float) -> None:
        stats, evals, counters = tracer.drain()
        for name, (calls, ns, self_ns) in stats.items():
            acc = self.stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += ns * scale
            acc[2] += self_ns * scale
        for table, new in ((self.evals, evals), (self.counters, counters)):
            for name, n in new.items():
                table[name] = table.get(name, 0) + n
        self.commands += 1

    def calls(self, *names) -> int:
        return sum(self.stats.get(n, [0])[0] for n in names)

    def ns(self, *names) -> float:
        return sum(self.stats.get(n, [0, 0.0])[1] for n in names)

    def self_ns(self, layer: str) -> float:
        return sum(v[2] for k, v in self.stats.items() if k.startswith(layer + "."))


def _per(total: float, count: float, unit: float) -> float:
    return total / count / unit if count else 0.0


def layer_metrics(first: LayerTotals, timed: LayerTotals) -> dict[str, tuple[float, str]]:
    """Counts from the first traced pass (they repeat exactly for one seed);
    times per call or per command over every traced pass."""
    ms, us = 1e6, 1e3
    cmds = timed.commands
    solves = ("opalgebra.solve", "opalgebra.solve_nested")
    antidiff = ("antidiff.antidifference", "antidiff.resolvent_sum", "antidiff.definite_sum")
    specials = ("numkit.digamma", "numkit.ln_gamma")
    summand_evals = first.evals.get("opalgebra", 0)
    estimate = first.counters.get("opalgebra.estimate_terms", 0)
    m = {
        "cli.parse_args_ms": (_per(timed.ns("cli.parse_args"), cmds, ms), "ms"),
        "cli.format_ms": (_per(timed.ns("cli.format"), cmds, ms), "ms"),
        "cli.self_ms": (_per(timed.self_ns("cli"), cmds, ms), "ms"),
        "exprlang.parse_calls": (first.calls("exprlang.parse"), "count"),
        "exprlang.parse_us": (_per(timed.ns("exprlang.parse"), timed.calls("exprlang.parse"), us), "us"),
        "exprlang.evals": (first.calls("exprlang.eval"), "count"),
        "exprlang.eval_ns": (_per(timed.ns("exprlang.eval"), timed.calls("exprlang.eval"), 1.0), "ns"),
        "exprlang.errors": (first.counters.get("exprlang.errors", 0), "count"),
        "antidiff.calls": (first.calls(*antidiff), "count"),
        "antidiff.terms": (first.evals.get("antidiff", 0), "count"),
        "antidiff.loop_ns_per_term": (_per(timed.self_ns("antidiff"), timed.evals.get("antidiff", 0), 1.0), "ns"),
        "opalgebra.solves": (first.calls(*solves), "count"),
        "opalgebra.solve_ms": (_per(timed.ns("opalgebra.solve"), timed.calls("opalgebra.solve"), ms), "ms"),
        "opalgebra.verify_ms": (
            _per(timed.ns("opalgebra.verify_particular"), timed.calls("opalgebra.verify_particular"), ms), "ms"),
        "opalgebra.verify_over_solve": (_per(timed.ns("opalgebra.verify_particular"), timed.ns("opalgebra.solve"), 1.0), "ratio"),
        "opalgebra.summand_evals": (summand_evals, "count"),
        "opalgebra.estimate_terms": (estimate, "count"),
        "opalgebra.estimate_over_evals": (_per(estimate, summand_evals, 1.0), "ratio"),
        "inequality.build_ms": (
            _per(timed.ns("inequality.build_solution"), timed.calls("inequality.build_solution"), ms), "ms"),
        "inequality.check_ms": (
            _per(timed.ns("inequality.check_inequality"), timed.calls("inequality.check_inequality"), ms), "ms"),
    }
    for name in IDENTITY_NAMES:
        m[f"verify.{name}_ms"] = (_per(timed.ns(f"verify.{name}"), timed.calls(f"verify.{name}"), ms), "ms")
    m["numkit.floor_mod_calls"] = (first.calls("numkit.floor_mod"), "count")
    m["numkit.special_calls"] = (first.calls(*specials), "count")
    m["numkit.special_ns"] = (_per(timed.ns(*specials), timed.calls(*specials), 1.0), "ns")
    return m


# ------------------------------------------------------------ main


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
    return h.hexdigest()


class LoopResult:
    """What the timed passes produced."""

    def __init__(self, cmds):
        self.baseline: list[Outcome] = []
        self.mismatches = [0] * len(cmds)  # passes whose output differed from pass 0
        self.pass_times: dict[bool, list[float]] = {False: [], True: []}  # by traced
        self.samples: list[float] = []  # normalised seconds of untraced commands
        self.passes = 0
        self.first: LayerTotals | None = None  # after the first traced pass
        self.layers = LayerTotals()  # over all traced passes


def timed_loop(cmds, cli_main, seconds: float, tracer=None) -> LoopResult:
    """Pass 0 captures outputs; timed passes run until ``seconds`` have passed.

    With a tracer, timed passes alternate traced and untraced, starting
    traced; there are always at least two timed passes.
    """
    res = LoopResult(cmds)
    gc.collect()
    res.baseline, _ = run_pass(cmds, cli_main)
    start = time.perf_counter()
    while res.passes < 2 or time.perf_counter() - start < seconds:
        traced = tracer is not None and res.passes % 2 == 0
        if traced:

            def on_command(i, scale):
                res.layers.fold(tracer, scale)
                tracer.command = i + 1

            tracer.recording = res.first is None  # spans of the first traced pass
            tracer.command = 0
            tracer.install()
            try:
                outcomes, times = run_pass(cmds, tracer.root(cli_main), on_command)
            finally:
                tracer.uninstall()
            if res.first is None:
                res.first = res.layers.copy()
        else:
            outcomes, times = run_pass(cmds, cli_main)
            res.samples.extend(times)
        res.pass_times[traced].append(sum(times))
        for i, (o, b) in enumerate(zip(outcomes, res.baseline)):
            res.mismatches[i] += o.key() != b.key()
        res.passes += 1
    return res


def tally(cmds, res: LoopResult) -> tuple[int, dict[str, int], list]:
    """Failed commands, failed commands by kind, and the unexpected failures.

    Each command counts once, however many passes ran it, so the counts
    depend on the seed alone and not on how fast the machine was. Pass 0's
    outputs are checked; a command fails if its output is wrong or if any
    timed pass gave other output than pass 0.
    """
    from reference import Checker, self_test

    self_test()
    checker = Checker()
    failed = 0
    by_kind: dict[str, int] = {}
    unexpected = []
    for cmd, o, bad_repeats in zip(cmds, res.baseline, res.mismatches):
        verdict = checker.check(cmd.argv, cmd.spec, o.rc, o.out, o.err, o.exc)
        if bad_repeats:
            by_kind["nondeterministic"] = by_kind.get("nondeterministic", 0) + 1
            unexpected.append((cmd.argv, "output differs between passes"))
        if not verdict.ok:
            kind = verdict.known or "unexpected"
            by_kind[kind] = by_kind.get(kind, 0) + 1
            if verdict.known is None:
                unexpected.append((cmd.argv, verdict.reason))
        failed += bool(bad_repeats) or not verdict.ok
    return failed, by_kind, unexpected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "adiff" / "cli.py").is_file():
        print(f"bench: the program under test is missing ({SRC / 'adiff'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import adiff.cli

    if Path(adiff.cli.__file__).resolve().parent != (SRC / "adiff").resolve():
        print(f"bench: imported adiff from {adiff.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    cmds = generate(args.workload, args.seed)
    setups, imports = measure_setup()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    res = timed_loop(cmds, adiff.cli.main, args.seconds, tracer)
    # Read before the checker imports mpmath, so only the workload counts.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, by_kind, unexpected = tally(cmds, res)
    attempted = len(cmds)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commands_per_pass": len(cmds),
        "timed_passes": res.passes,
        "samples": len(res.samples),
        "argv_sha256": _digest("\0".join(c.argv) + "\n" for c in cmds),
        "stdout_sha256": _digest(o.out for o in res.baseline),
        "fail_ratio": failed / attempted,
        "failed_commands_by_kind": by_kind,
        "unexpected": [[" ".join(a), r] for a, r in unexpected[:10]],
        "cal_ref_s": CAL_REF_S,
    }
    if args.trace:
        metrics = layer_metrics(res.first, res.layers)
        metrics["import_ms"] = (statistics.median(imports), "ms")
        traced, untraced = (statistics.mean(res.pass_times[k]) for k in (True, False))
        metrics["trace_overhead"] = (traced / untraced, "ratio")
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "cmd_ms_p50": (statistics.median(res.samples) * 1e3, "ms"),
            "cmd_ms_p90": (p90(res.samples) * 1e3, "ms"),
            "cmds_per_s": (len(res.samples) / sum(res.samples), "1/s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(dict(detail, result=result), indent=1) + "\n")
    if tracer is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
