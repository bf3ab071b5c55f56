"""Pins the CLI output on the corpus: the sha256 of stdout and the exit code
of `fragments --list-fragments`, `real` and `totally-real` (text and --json)
on every `corpus/*.json`, and of `lattice` on every `corpus/*.lattice` and on
the expressions in `LATTICE_EXPRESSIONS`.

The digests in `cli_digests.json` are the reference output.  A change meant
to keep output byte-identical must leave them as they are; a change meant
to alter output re-records them with

    PYTHONPATH=src python tests/test_cli_digests.py

and says why in its description.  Paths are passed relative to the
repository root, because the reports echo them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from k3lines.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "cli_digests.json"

# The benchmark's lattice expressions and U(5)+A4(5): discriminant forms with
# large 3- and 5-parts, so they pin the Brown invariant beyond the corpus.
LATTICE_EXPRESSIONS = (
    "3A2(3)", "2U(3)+A2(3)", "E6(3)", "D4(3)", "A4(5)", "U(5)+A4(5)",
)


def _calls() -> list[tuple[str, ...]]:
    calls = []
    for path in sorted((ROOT / "corpus").glob("*.json")):
        rel = f"corpus/{path.name}"
        for cmd in (("fragments", "--list-fragments"), ("real",), ("totally-real",)):
            calls.append((cmd[0], rel, *cmd[1:]))
            calls.append((cmd[0], rel, *cmd[1:], "--json"))
    for path in sorted((ROOT / "corpus").glob("*.lattice")):
        rel = f"corpus/{path.name}"
        calls.append(("lattice", rel))
        calls.append(("lattice", rel, "--json"))
    for expr in LATTICE_EXPRESSIONS:
        calls.append(("lattice", expr))
        calls.append(("lattice", expr, "--json"))
    return calls


def _run(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
    }


def _expected() -> dict:
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("argv", _calls(), ids=" ".join)
def test_cli_output_matches_recorded_digest(argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert _run(argv) == _expected()[" ".join(argv)]


def test_every_recorded_call_still_runs():
    assert sorted(_expected()) == sorted(" ".join(c) for c in _calls())


if __name__ == "__main__":
    os.chdir(ROOT)
    record = {" ".join(argv): _run(argv) for argv in _calls()}
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"recorded {len(record)} calls in {DIGESTS}\n")
