"""Pins the CLI output on the corpus: the sha256 of stdout and the exit code
of `fragments --list-fragments`, `real` and `totally-real` (text and --json)
on every `corpus/*.json`, and of `lattice` on every `corpus/*.lattice` and on
the expressions in `LATTICE_EXPRESSIONS`.  The 48 lines of the Fermat
quartic are pinned too: `fragments --list-fragments` and `totally-real` on
`tests/data/fermat48.json`, and `real` on `tests/data/fermat48_definite2.json`,
the same lines with T = [8, 0, 8], the only pinned call whose candidate
actions reach the gluing closure test.  So is `totally-real` on
`tests/data/edgeless11.json`, 11 edgeless lines at degree 2, the pinned
call that reads YES_CONTAINS_U2, and `real` on `tests/data/halves8.json`,
8 edgeless lines tied in two blocks of four by half-sums, whose stabilizer
S4 wr S2 is found without listing the 40,320 automorphisms, and `real` on
`tests/data/half8.json`, the same lines with the one half-sum of lines 0-3,
whose stabilizer S4 x S4 is found because the stabilizer chain skips the
points outside a level's orbit.  They live under `tests/data/` so that the
corpus census stays as it is.

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

DATA_CALLS = (
    ("fragments", "fermat48.json", "--list-fragments"),
    ("totally-real", "fermat48.json"),
    ("real", "fermat48_definite2.json"),
    ("totally-real", "edgeless11.json"),
    ("real", "halves8.json"),
    ("real", "half8.json"),
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
    for cmd, name, *rest in DATA_CALLS:
        calls.append((cmd, f"tests/data/{name}", *rest))
        calls.append((cmd, f"tests/data/{name}", *rest, "--json"))
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
