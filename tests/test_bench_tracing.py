"""The benchmark's tracer (bench/tracing.py) wraps package globals by name.

A name it looks up that the package no longer has crashes every traced
run, so the tracer is installed here against the package, a few commands
run under it, and uninstalling must restore every global it replaced.
"""

import contextlib
import io
import pathlib

import pytest

import adiff.antidiff
import adiff.cli
import adiff.inequality
import adiff.numkit
import adiff.opalgebra
import adiff.verify

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
MODULES = (adiff.antidiff, adiff.cli, adiff.inequality, adiff.numkit, adiff.opalgebra, adiff.verify)
COMMANDS = [
    ["solve", "--factors", "1:0.5;0.5:-0.7", "--expr", "cos(t)", "--t", "6.3"],
    ["table", "--mode", "solve", "--factors", "0.1:0.9;0.3:-0.5", "--expr", "t", "--from", "0", "--to", "1", "--step", "0.1"],
    ["eval", "--expr", "t^2", "--t", "20.5", "--h", "0.5"],
    ["sum", "--expr", "t", "--from", "1", "--to", "9"],
    ["inequality", "--h", "1", "--lambda", "1", "--direction", "geq", "--mu", "0", "--slack", "1", "--from", "0", "--to", "5", "--samples", "4"],
    ["verify", "--identity", "digamma", "--samples", "5"],
]


def _globals():
    snapshot = {(m.__name__, k): v for m in MODULES for k, v in vars(m).items()}
    for name in ("text_line", "csv_row", "json_line"):
        snapshot[("OutputRecord", name)] = adiff.cli.OutputRecord.__dict__[name]
    return snapshot


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    return tracing


def test_install_runs_commands_and_uninstall_restores(tracing):
    before = _globals()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                assert tracer.root(adiff.cli.main)(argv) == 0, argv
        stats, evals, _ = tracer.drain()
    finally:
        tracer.uninstall()
    after = _globals()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    assert stats["cli.main"][0] == len(COMMANDS)
    assert stats["exprlang.eval"][0] > 0
    assert sum(evals.values()) == stats["exprlang.eval"][0]
