"""Tests for the command-line front end: report content, exit codes, and
byte determinism of machine output."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from k3lines import multigraph
from k3lines.configio import MAX_LINES
from k3lines.cli import (
    EXIT_CAP,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_STRICT,
    main,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLatticeCommand:
    def test_schur_quartic_expression(self, capsys):
        code, out, _ = run(capsys, "lattice", "[8,4,8]", "--json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["rank"] == 2
        assert report["signature"] == [2, 0]
        assert report["determinant"] == 48
        assert report["discriminant"]["factors"] == [4, 12]
        assert report["ell"] == {"2": 2, "3": 1}
        assert report["milgram"] == "ok"

    def test_e8_trivial_discriminant(self, capsys):
        code, out, _ = run(capsys, "lattice", "E8", "--json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["determinant"] == 1
        assert report["discriminant"]["factors"] == []

    def test_two_u_three(self, capsys):
        code, out, _ = run(capsys, "lattice", "2U(3)", "--json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["discriminant"]["factors"] == [3, 3, 3, 3]
        assert report["ell"] == {"3": 4}

    def test_reads_expression_from_file(self, capsys):
        code, out, _ = run(
            capsys, "lattice", str(CORPUS / "schur_quartic.lattice")
        )
        assert code == EXIT_OK
        assert "Z/4 x Z/12" in out

    def test_parse_failure(self, capsys):
        code, _, err = run(capsys, "lattice", "not a lattice (")
        assert code == EXIT_INPUT
        assert "error:" in err

    def test_degenerate_lattice_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "lattice", "[2,2,2]")
        assert code == EXIT_INPUT
        assert out == ""
        assert err == "error: degenerate lattice has no discriminant form\n"

    def test_empty_expression_names_the_missing_atom(self, capsys):
        code, _, err = run(capsys, "lattice", "")
        assert code == EXIT_INPUT
        assert "position 0: expected a lattice atom" in err

    @pytest.mark.parametrize("expr", ["A1000", "500U", "100U"])
    def test_rank_above_the_limit_fails_before_matrix_work(self, expr):
        proc = subprocess.run(
            [sys.executable, "-m", "k3lines.cli", "lattice", expr],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == EXIT_INPUT
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert "exceeds the limit of 64" in proc.stderr

    def test_rank_limit_counts_every_summand(self, capsys):
        code, _, err = run(capsys, "lattice", "+".join(["U"] * 33))
        assert code == EXIT_INPUT
        assert "lattice rank 66 exceeds the limit of 64" in err
        code, out, _ = run(capsys, "lattice", "+".join(["U"] * 32), "--json")
        assert code == EXIT_OK
        assert json.loads(out)["rank"] == 64

    def test_overlong_integer_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "lattice", "A" + "9" * 5000)
        assert code == EXIT_INPUT
        assert out == ""
        assert "integer has too many digits" in err

    def test_determinant_with_two_large_prime_factors_hits_the_cap(self):
        # 2 x 1000000007 x 998244353: trial division alone would run for
        # minutes
        proc = subprocess.run(
            [sys.executable, "-m", "k3lines.cli", "lattice", "[1996488719975420942]"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == EXIT_CAP
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: factoring a 61-bit number")

    def test_determinant_with_one_large_prime_factor_is_factored(self, capsys):
        # 2 x (2**61 - 1): the cofactor is past the trial division but
        # proven prime, and its part is one cyclic block
        code, out, _ = run(capsys, "lattice", f"[{2 * (2**61 - 1)}]", "--json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["brown"] == 1
        assert report["milgram"] == "ok"

    def test_large_elementary_two_group_is_not_capped(self, capsys):
        # (Z/2)**20: 2**20 elements, twenty blocks
        code, out, _ = run(capsys, "lattice", "20[2]", "--json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["brown"] == 4
        assert report["milgram"] == "ok"

    def test_human_output_mentions_milgram(self, capsys):
        code, out, _ = run(capsys, "lattice", "[8,4,8]")
        assert code == EXIT_OK
        assert "Milgram check ok" in out
        assert "signature (2, 0)" in out


class TestFragmentsCommand:
    def test_k33_census(self, capsys):
        code, out, _ = run(
            capsys, "fragments", str(CORPUS / "k33.json"), "--json"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["total"] == 1
        assert report["by_type"] == {"K33": 1}
        assert report["invariants"] == {
            "rank": 6,
            "girth": 4,
            "aut_order": 72,
        }
        assert report["warnings"] == []
        assert "fragments" not in report

    def test_list_fragments(self, capsys):
        code, out, _ = run(
            capsys,
            "fragments",
            str(CORPUS / "k33.json"),
            "--json",
            "--list-fragments",
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["fragments"] == [
            {"vertices": [0, 1, 2, 3, 4, 5], "type": "K33"}
        ]

    def test_disjoint_union_warns(self, capsys):
        code, out, _ = run(
            capsys,
            "fragments",
            str(CORPUS / "prism_plus_k33.json"),
            "--json",
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["total"] == 2
        assert report["by_type"] == {"K33": 1, "prism": 1}
        assert any("no polarized K3" in w for w in report["warnings"])

    def test_empty_graph(self, capsys):
        code, out, _ = run(
            capsys, "fragments", str(CORPUS / "empty_six.json"), "--json"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["total"] == 0
        assert report["invariants"]["girth"] is None

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "fragments", "no_such.json")
        assert code == EXIT_INPUT
        assert "no such file" in err

    def test_thread_count_below_one_is_an_input_error(self, capsys):
        for cmd in ("fragments", "real", "totally-real"):
            code, out, err = run(
                capsys, cmd, str(CORPUS / "k33.json"), "--threads", "0"
            )
            assert code == EXIT_INPUT
            assert out == ""
            assert err == "error: --threads must be at least 1\n"

    def test_invalid_document(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"degree": 6, "vertices": 6, "surprise": 1}')
        code, _, err = run(capsys, "fragments", str(bad))
        assert code == EXIT_INPUT
        assert "surprise" in err

    def test_line_count_above_the_limit_fails_before_matrix_work(self, tmp_path):
        # a 100,000 x 100,000 multiplicity matrix would exhaust memory
        big = tmp_path / "big.json"
        big.write_text('{"degree": 4, "vertices": 100000, "edges": []}')
        proc = subprocess.run(
            [sys.executable, "-m", "k3lines.cli", "fragments", str(big)],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == EXIT_INPUT
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: 100000 vertices exceed the limit of {MAX_LINES} lines\n"
        )


class TestRealCommand:
    def test_k33_candidates(self, capsys):
        code, out, _ = run(
            capsys, "real", str(CORPUS / "k33.json"), "--json"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        cands = report["candidates"]
        assert len(cands) == 4
        assert cands[0]["permutation"] == [0, 1, 2, 3, 4, 5]
        assert cands[0]["admissibility"] == "ADMISSIBLE"
        assert cands[0]["numR"] == 1 and cands[0]["numRR"] == 1
        assert all(c["sign"] == -1 for c in cands)

    def test_strict_flags_unknown(self, capsys):
        code, _, _ = run(
            capsys, "real", str(CORPUS / "k33.json"), "--strict"
        )
        assert code == EXIT_STRICT

    def test_matched_transcendental_is_decisive(self, capsys):
        code, out, _ = run(
            capsys,
            "real",
            str(CORPUS / "triangle_def2.json"),
            "--json",
            "--strict",
        )
        assert code == EXIT_OK  # nothing UNKNOWN
        report = json.loads(out)
        statuses = {
            tuple(c["permutation"]): c["admissibility"]
            for c in report["candidates"]
        }
        assert statuses == {
            (0, 1, 2): "INADMISSIBLE",
            (0, 2, 1): "ADMISSIBLE",
        }

    def test_genus_mismatch_file(self, capsys):
        code, out, _ = run(
            capsys, "real", str(CORPUS / "k33_twou3.json"), "--json"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert all(
            c["admissibility"] == "INADMISSIBLE"
            for c in report["candidates"]
        )
        assert all(
            "genus mismatch" in c["reason"]
            for c in report["candidates"]
        )

    def test_automorphism_search_cap_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(multigraph, "AUTOMORPHISM_NODE_CAP", 1)
        code, out, err = run(capsys, "real", str(CORPUS / "cube.json"))
        assert code == EXIT_CAP
        assert out == ""
        assert err == "error: automorphism search exceeded the node cap\n"

    def test_cap_exceeded_exit_code(self, capsys, tmp_path):
        # twelve interchangeable lines with a symmetry-breaking glue
        # vector force enumeration of 12! automorphisms
        doc = {
            "degree": 2,
            "vertices": 12,
            "edges": [],
            "kernel": [
                {
                    "numerators": [1, 1, 1, 1] + [0] * 9,
                    "denominator": 2,
                }
            ],
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "real", str(path))
        assert code == EXIT_CAP
        assert "error:" in err


class TestTotallyRealCommand:
    def test_k33_verdict(self, capsys):
        code, out, _ = run(
            capsys, "totally-real", str(CORPUS / "k33.json"), "--json"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["verdict"] == "YES_CONTAINS_2"
        assert report["r"] == 16
        assert report["det_n"] == -80
        assert report["trace"]
        assert report["trace"][-1].startswith("verdict:")

    def test_strict_passes_on_yes(self, capsys):
        code, _, _ = run(
            capsys,
            "totally-real",
            str(CORPUS / "k33.json"),
            "--strict",
        )
        assert code == EXIT_OK

    def test_glued_extension_changes_determinant(self, capsys):
        code, out, _ = run(
            capsys,
            "totally-real",
            str(CORPUS / "k33_glued.json"),
            "--json",
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["det_n"] == -20


class TestDeterminism:
    def test_reports_reparse(self, capsys):
        for name, cmd in (
            ("k33.json", "fragments"),
            ("k33.json", "real"),
            ("k33.json", "totally-real"),
        ):
            code, out, _ = run(
                capsys, cmd, str(CORPUS / name), "--json"
            )
            assert code == EXIT_OK
            report = json.loads(out)
            assert report["command"] == cmd
            assert len(report["input_sha256"]) == 64

    def test_byte_identical_across_seeds_and_threads(self):
        outputs = set()
        for seed, threads in (("0", "1"), ("12345", "8")):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "k3lines.cli",
                    "real",
                    str(CORPUS / "k33.json"),
                    "--json",
                    "--threads",
                    threads,
                ],
                capture_output=True,
                env=env,
                check=True,
            )
            outputs.add(proc.stdout)
        assert len(outputs) == 1
