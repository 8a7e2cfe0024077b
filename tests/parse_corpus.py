"""Inputs of the parser's golden corpus and the script that records it.

``python tests/parse_corpus.py`` parses every input below with the ``adiff``
on the import path and writes ``tests/data/parse_corpus.json``: each input
with its outcome, either the unparsed tree or the ``ParseError``'s position
and message. ``test_exprlang.TestGoldenCorpus`` checks the parser against
the recorded file, so a change to the tokenizer or the parser that moves a
position or a word of a message fails there. The file was recorded before
the single-regex tokenizer replaced the character loop, and its ``mixed``
inputs before one precedence-climbing loop replaced the recursive
``expr``/``term``/``factor`` productions. CI re-records the file and fails
if it changes.
"""

from __future__ import annotations

import json
import pathlib
import random

from adiff.errors import ParseError
from adiff.exprlang import parse, unparse

CORPUS_PATH = pathlib.Path(__file__).parent / "data" / "parse_corpus.json"


def _mutants(rng: random.Random, count: int) -> list[str]:
    """Unparsed random trees with one character deleted, inserted or replaced."""
    from test_exprlang import gen_ast  # imported here: test_exprlang imports this module

    alphabet = "+-*/^() .e1t$\xa0\u0661"
    out = []
    for _ in range(count):
        text = unparse(gen_ast(rng, rng.randint(1, 5)))
        i = rng.randrange(len(text) + 1)
        edit = rng.randrange(3)
        if edit == 0 and i < len(text):
            text = text[:i] + text[i + 1:]
        elif edit == 1:
            text = text[:i] + rng.choice(alphabet) + text[i:]
        else:
            text = text[:i] + rng.choice(alphabet) + text[i + 1:]
        out.append(text)
    return out


def inputs() -> list[str | bytes]:
    whitespace = [
        "\xa0t", "t\xa0+\xa01", "\u3000t\u3000", "t\u2028+1", "t\u2029*2",
        "\tt\n+\r1\x0b\x0c", "\x1ct\x1d+\x1e1\x1f", "\x85t", "t\u2003+\u20091",
        "\u200bt", "\ufefft", "t\u180e", "\xa0", "\t\n", "",
    ]
    digits = ["\u0663", "t+\u0661\u0662", "\uff11", "t\xb2", "1\u0660", "\u0661.5", "2e\u0663"]
    numbers = [
        ".", "1.", ".5", "1..2", "1.5.", "1e", "1e+", "1e-", "1E5", "2e3", "2*e", "2e",
        "1.e5", ".e5", "e", "E", "1e+5e", "1e5.5", "007", "1_000", "0x1f", "inf", "nan",
    ]
    garbage = [
        "t $", "t 2", "sin(t))", "1 + 2 )", "t t", "(t", "sin t", "sin(", "foo(t)", "x",
        "()", "1 + * 2", "t^", "-", "--t", "t^-2", "2^3^2", "t$", "$", "#t", "t # c",
        "1,5", "\u03bb", "t\xe9", "_t", "t_1", "\u03c0", "pi(t)", "sin()", "sin(t, t)",
        "2 +", ")", "t)", "((t)", "t +* 2", "-t^2", "t!", "t\\", "t;", "1 + $ 2 )",
    ]
    raw = [
        b"\xff", b"t + \xff", b"\xc3", b"t\xe2\x82", b"\xed\xa0\x80", b"t + 1",
        b"\xc2\xa0t", b"\xff\xfe t", b"(t \xe3\x80\x80 + 1)",
    ]
    nesting = (
        ["(" * k + "t" + ")" * k for k in range(97, 103)]
        + ["(" * k + "t" for k in (99, 100, 101)]
        + ["-" * k + "t" for k in range(196, 201)]
        + ["sin(" * k + "t" + ")" * k for k in range(97, 102)]
        + ["^".join(["t"] * k) for k in range(97, 103)]
        + ["(" * 100 + "t $"]
    )
    chains = [op.join(["t"] * k) for op in "+-*/" for k in range(198, 203)]
    chains += ["t+" * 200 + "$", "+".join(["(t)"] * 201), "t" + "+-t" * 100]
    mixed = [
        "t+t^t*t", "-t^-t^t/t", "t*t^t^t-t", "t-t*t/t^t+t", "t^t^t*t^t+t", "1+2*3^4^5/6-7",
        "t/t*t-t+t", "t-t-t*t/t/t", "-t*-t", "t/-t^2", "t*-t^t", "2^-3^2", "-(t)^-(t)",
        "(t^t)^t", "t^(t^t)", "(t+t)^(t*t)", "t^(t+t)*-t", "-(t+t)*t^-t", "sin(t)^t^-t*t-t",
        "t-(t-t)", "t/(t/t)", "t--t", "t-+t", "t^*t", "t*^t", "t^t^", "t+t^t*", "-t^-",
        "(t+)", "t+(", "sin(t^)", "t^(t*)", "t^t t", "t*t^t)", "t^-t^-t^-t", "-t^2*3+t",
    ]
    mixed += ["^".join(["-t"] * k) for k in range(97, 103)]
    mixed += ["^".join(["-t"] * k) for k in range(196, 202)]
    mixed += ["^".join(["sin(t)"] * k) for k in range(96, 102)]
    mixed += ["^".join(["sin(t)"] * k) for k in range(195, 202)]
    mixed += ["^".join(["(t)"] * k) for k in (97, 98, 99, 100, 101, 102, 196, 197, 198, 199)]
    mixed += ["*".join(["t^t"] * k) for k in range(199, 203)]
    mixed += ["+".join(["t*t^t"] * k) for k in range(197, 201)]
    mixed += ["-" * k + "t^" + "-" * k + "t" for k in (98, 99, 196, 197, 198)]
    mixed += ["+".join(["-" * 99 + "t"] * 3), "t^" * 198 + "t*t", "t*" * 198 + "t^t"]
    return whitespace + digits + numbers + garbage + raw + nesting + chains + mixed + _mutants(
        random.Random(2406), 300
    )


def outcome(source: str | bytes) -> list:
    """``["ok", unparse(tree)]`` or ``["error", position, str(exc)]``."""
    try:
        tree = parse(source)
    except ParseError as exc:
        return ["error", exc.position, str(exc)]
    return ["ok", unparse(tree)]


def record() -> list[dict]:
    cases = []
    for source in inputs():
        key = {"hex": source.hex()} if isinstance(source, bytes) else {"text": source}
        cases.append({**key, "outcome": outcome(source)})
    return cases


if __name__ == "__main__":
    CORPUS_PATH.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(case) for case in record())
    CORPUS_PATH.write_text(f"[\n{lines}\n]\n", encoding="ascii")
