"""Spans around calls into adiff's layers, installed from outside the package.

The tracer replaces module globals that one layer calls another through
with timing wrappers, and restores them afterwards. Which names are wrapped:

* ``adiff.cli``: ``build_parser`` and the parser's ``parse_args`` (span
  ``cli.parse_args``), ``OutputRecord`` rendering and ``fmt17``
  (``cli.format``); the benchmark's own call of ``main`` is ``cli.main``.
* the names ``adiff.cli`` imports from the other layers: ``as_function``
  (``exprlang.parse``), ``antidifference``, ``resolvent_sum``,
  ``definite_sum``, ``particular_solution``, ``verify_particular``,
  ``build_solution``, ``check_inequality`` and ``run_battery``;
* the globals the layers call each other through:
  ``adiff.opalgebra.particular_solution`` (nested solves of
  ``verify_particular``), ``adiff.opalgebra.estimate_terms`` (the budget
  estimate of each solve), ``adiff.verify.run_identity``, and the
  ``floor_mod``, ``digamma`` and ``ln_gamma`` bindings of every module that
  imports them;
* the summand callable that ``as_function`` returns (``exprlang.eval``).

``adiff.convkernel`` has no wrapper: no CLI command reaches it.

A span's self time is its duration minus the time of the spans it
contains. It includes the wrappers' own bookkeeping around each child
call (a few hundred ns per summand call), a constant that cancels when two
runs of this tracer are compared but not against untraced numbers; the
traced run reports ``trace_overhead`` for that reason.

Per-call aggregates are kept for every span. Full span records (command,
id, parent id, name, start, end, self) are kept in memory only while
``recording`` is set, and written out by the caller at the end.
Summand, numkit and formatting spans are aggregated but not recorded, to
keep the record small.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from time import perf_counter_ns

import adiff.antidiff
import adiff.cli
import adiff.inequality
import adiff.numkit
import adiff.opalgebra
import adiff.verify
from adiff.errors import EvalError, ParseError


class Tracer:
    def __init__(self):
        # Each frame is [span name, child ns, span id, layer]; the root
        # frame collects time spent outside any span.
        self.stack: list[list] = [["", 0, 0, ""]]
        self.stats: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])  # calls, ns, self ns
        self.evals_under: dict[str, int] = defaultdict(int)  # summand calls by caller layer
        self.counters: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.recording = False
        self.command = -1
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    # ---------------------------------------------------------- wrappers

    def span(self, name: str, fn, record: bool = True, on_result=None, errors=()):
        """Wrap fn in a span called ``name``.

        ``on_result`` sees each return value; exceptions of the types in
        ``errors`` count as ``exprlang.errors``.
        """
        stack, stat, tracer, ids = self.stack, self.stats[name], self, self._ids
        layer = name.partition(".")[0]

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0, next(ids), layer]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except errors:
                tracer.counters["exprlang.errors"] += 1
                raise
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dt = t1 - t0
                parent[1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[1]
                if record and tracer.recording:
                    tracer.spans.append((tracer.command, frame[2], parent[2], name, t0, t1, dt - frame[1]))
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def summand(self, fn):
        """The per-term span: as lean as possible, since it runs millions of times."""
        stack, stat, counters, evals_under = self.stack, self.stats["exprlang.eval"], self.counters, self.evals_under
        # A summand never calls another summand, so one frame can be reused.
        frame = ["exprlang.eval", 0, 0, "exprlang"]

        def traced_summand(t):
            parent = stack[-1]
            frame[1] = 0
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(t)
            except EvalError:
                counters["exprlang.errors"] += 1
                raise
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                parent[1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[1]
                evals_under[parent[3]] += 1

        traced_summand.ast = getattr(fn, "ast", None)
        return traced_summand

    # ---------------------------------------------------------- patching

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        cli, opal = adiff.cli, adiff.opalgebra
        span = self.span
        stack = self.stack

        build_parser = cli.build_parser

        def traced_build_parser():
            parser = build_parser()
            parser.parse_args = span("cli.parse_args", parser.parse_args, record=False)
            return parser

        self._patch(cli, "build_parser", span("cli.parse_args", traced_build_parser, record=False))

        # fmt17 inside OutputRecord rendering is part of that format span.
        fmt17 = cli.fmt17
        fmt_span = span("cli.format", fmt17, record=False)
        self._patch(cli, "fmt17", lambda x: fmt17(x) if stack[-1][0] == "cli.format" else fmt_span(x))
        for method in ("text_line", "csv_row", "json_line"):
            self._patch(cli.OutputRecord, method, span("cli.format", getattr(cli.OutputRecord, method), record=False))

        as_function = cli.as_function
        parse = span("exprlang.parse", as_function, errors=ParseError)
        self._patch(cli, "as_function", lambda source: self.summand(parse(source)))

        for name in ("antidifference", "resolvent_sum", "definite_sum"):
            self._patch(cli, name, span(f"antidiff.{name}", getattr(cli, name)))

        self._patch(cli, "particular_solution", span("opalgebra.solve", cli.particular_solution))
        self._patch(cli, "verify_particular", span("opalgebra.verify_particular", cli.verify_particular))
        self._patch(opal, "particular_solution", span("opalgebra.solve_nested", opal.particular_solution))
        counters = self.counters

        def add_estimate(n):
            counters["opalgebra.estimate_terms"] += n

        self._patch(opal, "estimate_terms",
                    span("opalgebra.estimate_terms", opal.estimate_terms, record=False, on_result=add_estimate))

        self._patch(cli, "build_solution", span("inequality.build_solution", cli.build_solution))
        self._patch(cli, "check_inequality", span("inequality.check_inequality", cli.check_inequality))

        self._patch(cli, "run_battery", span("verify.run_battery", cli.run_battery))
        run_identity = adiff.verify.run_identity
        identity_spans = {}

        def traced_run_identity(name, *args, **kwargs):
            wrapped = identity_spans.get(name)
            if wrapped is None:
                wrapped = identity_spans[name] = span(f"verify.{name}", run_identity)
            return wrapped(name, *args, **kwargs)

        self._patch(adiff.verify, "run_identity", traced_run_identity)

        for module in (adiff.antidiff, opal, adiff.inequality, adiff.verify):
            self._patch(module, "floor_mod", span("numkit.floor_mod", module.floor_mod, record=False))
        for module in (adiff.verify, adiff.numkit):
            for name in ("digamma", "ln_gamma"):
                self._patch(module, name, span(f"numkit.{name}", getattr(module, name), record=False))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def root(self, fn):
        """The whole command as the ``cli.main`` span."""
        return self.span("cli.main", fn)

    # ---------------------------------------------------------- draining

    def drain(self) -> tuple[dict, dict, dict]:
        """Return and reset the aggregates gathered since the last drain:
        span stats, summand calls by caller layer, and counters."""
        stats = {k: list(v) for k, v in self.stats.items()}
        for v in self.stats.values():
            v[0] = v[1] = v[2] = 0
        evals, counters = dict(self.evals_under), dict(self.counters)
        self.evals_under.clear()
        self.counters.clear()
        return stats, evals, counters
