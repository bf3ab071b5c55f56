"""Tests for the command-line front end: report content, exit codes, and
byte determinism of machine output."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from k3lines import cli, fano, lattices, multigraph, realcrit
from k3lines.configio import MAX_LINES
from k3lines.cli import (
    EXIT_CAP,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_STRICT,
    build_parser,
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

    def test_square_of_a_large_prime_is_factored(self, capsys):
        # det U(p) = -p**2, but D has exponent p: factoring the exponent
        # stops trial division at the square root of p, while factoring
        # p**2 ran it to the limit of 10**6 (0.16 s in-process)
        start = time.process_time()
        code, out, _ = run(capsys, "lattice", "U(1000000007)")
        assert time.process_time() - start < 0.1
        assert code == EXIT_OK
        assert "discriminant group: Z/1000000007 x Z/1000000007" in out
        assert "ell_1000000007 = 2" in out

    def test_large_elementary_two_group_is_not_capped(self, capsys):
        # (Z/2)**20: 2**20 elements, twenty blocks
        code, out, _ = run(capsys, "lattice", "20[2]", "--json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["brown"] == 4
        assert report["milgram"] == "ok"

    def test_non_utf8_file_is_an_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.lattice"
        bad.write_bytes(b"[8,4,\xff]")
        code, out, err = run(capsys, "lattice", str(bad))
        assert code == EXIT_INPUT
        assert out == ""
        assert err == f"error: {bad} is not UTF-8 text (byte 5)\n"

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

    @pytest.mark.parametrize("lines", [20, 21])
    def test_hyperbolic_quotient_of_rank_above_twenty_warns(
        self, capsys, tmp_path, lines
    ):
        # n edgeless lines and h at degree 2 span a hyperbolic N of rank
        # n + 1, too large for a Picard lattice
        path = tmp_path / f"edgeless{lines}.json"
        path.write_text(json.dumps({"degree": 2, "vertices": lines, "edges": []}))
        code, out, _ = run(capsys, "fragments", str(path), "--json")
        assert code == EXIT_OK
        assert json.loads(out)["warnings"] == [
            f"line lattice rank {lines + 1} exceeds 20; no polarized K3 "
            "surface realizes this configuration"
        ]

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

    def test_non_utf8_file_is_an_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"degree": 4, \xff}')
        for cmd in ("fragments", "real", "totally-real"):
            code, out, err = run(capsys, cmd, str(bad))
            assert code == EXIT_INPUT
            assert out == ""
            assert err == f"error: {bad} is not UTF-8 text (byte 14)\n"

    def test_file_is_read_once(self, capsys, monkeypatch):
        reads = []
        read_bytes = Path.read_bytes

        def counted(path):
            reads.append(path)
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", counted)
        monkeypatch.setattr(Path, "read_text", None)
        code, out, _ = run(
            capsys, "fragments", str(CORPUS / "k33.json"), "--json"
        )
        assert code == EXIT_OK
        assert reads == [CORPUS / "k33.json"]
        report = json.loads(out)
        assert report["input_sha256"] == hashlib.sha256(
            read_bytes(CORPUS / "k33.json")
        ).hexdigest()

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


    @pytest.mark.parametrize(
        "vertices, halves, error",
        [
            # without a kernel the stabilizer is Aut = Sym(12), whose
            # 140,152 involutions pass the cap on the nodes of the walk
            # that lists them
            (12, (), "involution classes: involution walk exceeds the cap "
                     "of 10000 nodes"),
            # with two half-sums on 10 lines the stabilizer search
            # exhausts cosets with no kept element, such as the 7!
            # automorphisms that fix 0, 1, 2 and take 3 to 4, and passes
            # the cap on the automorphisms given to the kernel test
            (10, ((1, 1, 1, 1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1, 1, 1, 0, 0)),
             "polarized stabilizer: subgroup search exceeds the cap of 10000 "
             "tests"),
        ],
        ids=["involution classes", "polarized stabilizer"],
    )
    def test_element_cap_names_its_stage(
        self, capsys, tmp_path, vertices, halves, error
    ):
        doc = {
            "degree": 2,
            "vertices": vertices,
            "edges": [],
            "kernel": [
                {"numerators": list(half) + [0], "denominator": 2}
                for half in halves
            ],
        }
        path = tmp_path / f"edgeless{vertices}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "real", str(path))
        assert (code, out) == (EXIT_CAP, "")
        assert err == f"error: {error}\n"

    def test_eight_edgeless_lines_have_five_candidates(self, capsys, tmp_path):
        # Sym(8): one class per number of disjoint transpositions, found by
        # the involution walk without listing the 40,320 elements
        path = tmp_path / "edgeless8.json"
        path.write_text(json.dumps({"degree": 2, "vertices": 8, "edges": []}))
        code, out, _ = run(capsys, "real", str(path), "--json")
        assert code == EXIT_OK
        perms = [c["permutation"] for c in json.loads(out)["candidates"]]
        assert perms == [
            [0, 1, 2, 3, 4, 5, 6, 7],
            [0, 1, 2, 3, 4, 5, 7, 6],
            [0, 1, 2, 3, 5, 4, 7, 6],
            [0, 1, 3, 2, 5, 4, 7, 6],
            [1, 0, 3, 2, 5, 4, 7, 6],
        ]

    def test_one_line(self, capsys, tmp_path):
        # the shortest permutations, which `compose_perm` composes without
        # `itemgetter`
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"degree": 2, "vertices": 1, "edges": []}))
        code, out, _ = run(capsys, "real", str(path))
        assert code == EXIT_OK
        assert out == (
            "candidates (up to conjugacy): 1\n"
            "  sigma = (0), sign -1: numR 0, numRR 0, ADMISSIBLE\n"
            "    reason: screening rules: YES_CONTAINS_2\n"
        )

    def test_genus_mismatch_with_large_scale_is_fast(self, capsys, tmp_path):
        # discr 2U(7) has 2401 elements and an automorphism group of about
        # 2 x 10^5; no anti-isometry reaches it from K33's D_N, so neither
        # is needed (61.6 s before the gluing searched once per call)
        doc = json.loads((CORPUS / "k33.json").read_text())
        doc["transcendental"] = {"twoU": 7}
        path = tmp_path / "k33_twou7.json"
        path.write_text(json.dumps(doc))
        start = time.process_time()
        code, out, _ = run(capsys, "real", str(path), "--json")
        assert time.process_time() - start < 2
        assert code == EXIT_OK
        assert all(
            "genus mismatch" in c["reason"]
            for c in json.loads(out)["candidates"]
        )

    def test_huge_definite_entry_hits_the_box_cap(self, tmp_path):
        # the orthogonal group search would walk 2.4 x 10^8 vectors
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "degree": 6, "vertices": 6, "edges": [],
            "transcendental": {"definite2": [10**16, 3, 6]},
        }))
        proc = subprocess.run(
            [sys.executable, "-m", "k3lines.cli", "real", str(path)],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == EXIT_CAP
        assert proc.stdout == ""
        assert proc.stderr.startswith(
            "error: orthogonal group of a definite lattice: 244948977 "
            "vectors to test for norm 10000000000000000 exceed the cap of "
        )


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

    def test_hyperbolic_case_fails_on_a_two_length_above_r(self, capsys, tmp_path):
        # 15 edgeless lines at degree 6: r = 6 and the 2-length is 14, so no
        # rank-6 T has D_T's 2-part, whatever order-2 pairs it holds
        path = tmp_path / "edgeless15.json"
        path.write_text(json.dumps({"degree": 6, "vertices": 15, "edges": []}))
        code, out, _ = run(capsys, "totally-real", str(path), "--json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["r"] == 6
        assert report["verdict"] == "NO"
        assert "hyperbolic case, p=2: length 14 exceeds r: fail" in report["trace"]

    def test_edgeless_eleven_contains_u2(self, capsys):
        # 11 edgeless lines at degree 2: the 2-length 10 equals r, so the
        # norm-2 case fails at p = 2 and the hyperbolic case passes
        code, out, _ = run(
            capsys, "totally-real", str(DATA / "edgeless11.json"), "--json"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert (report["rank_n"], report["r"], report["det_n"]) == (12, 10, -15360)
        assert report["verdict"] == "YES_CONTAINS_U2"
        assert (
            "norm-2 case, p=2: length 10 = r but no order-2 vector of square "
            "-1/2 works: fail"
        ) in report["trace"]
        assert report["trace"][-2].startswith("hyperbolic case, p=2:")
        assert report["trace"][-2].endswith(": pass")

    def test_two_length_above_r_skips_the_two_torsion_scan(self, tmp_path):
        # 20 edgeless lines at degree 2: 2-length 19 against r = 1; the
        # 2**19 elements of order 2 are never scanned
        path = tmp_path / "edgeless20.json"
        path.write_text(json.dumps({"degree": 2, "vertices": 20, "edges": []}))
        proc = subprocess.run(
            [sys.executable, "-m", "k3lines.cli", "totally-real", str(path), "--json"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        assert proc.returncode == EXIT_OK
        report = json.loads(proc.stdout)
        assert report["verdict"] == "NO"
        assert report["trace"][-2] == "hyperbolic case, p=2: length 19 exceeds r: fail"


def with_transcendental(tmp_path, transcendental) -> str:
    doc = json.loads((CORPUS / "k33.json").read_text())
    doc["transcendental"] = transcendental
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


DISCR = {"factors": [3], "qvalues": ["2/3"], "pairing": [["1/3"]]}


class TestMalformedTranscendental:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("factors", 2, "discr factors must be a list, got 2"),
            ("qvalues", "2/3", "discr qvalues must be a list, got '2/3'"),
            ("pairing", None, "discr pairing must be a list, got None"),
            ("pairing", ["1/3"], "discr pairing row must be a list, got '1/3'"),
        ],
    )
    def test_discr_lists_are_checked(self, capsys, tmp_path, field, value, message):
        block = dict(DISCR, **{field: value})
        path = with_transcendental(tmp_path, {"discr": block, "rank": 4})
        for cmd in ("fragments", "real", "totally-real"):
            code, out, err = run(capsys, cmd, path)
            assert (code, out, err) == (EXIT_INPUT, "", f"error: {message}\n")

    @pytest.mark.parametrize("order", [0, -2])
    def test_discr_orders_must_be_positive(self, capsys, tmp_path, order):
        # order 0 would be an infinite cyclic group; neither may read as the
        # trivial form
        block = dict(DISCR, factors=[order])
        path = with_transcendental(tmp_path, {"discr": block, "rank": 4})
        for cmd in ("fragments", "real", "totally-real"):
            code, out, err = run(capsys, cmd, path)
            assert (code, out) == (EXIT_INPUT, "")
            assert err == (
                "error: bad discriminant form: generator orders must be "
                "positive\n"
            )

    def test_degenerate_discr_form_is_rejected(self, capsys, tmp_path):
        block = {"factors": [2], "qvalues": ["0"], "pairing": [["0"]]}
        path = with_transcendental(tmp_path, {"discr": block, "rank": 3})
        for cmd in ("fragments", "real", "totally-real"):
            code, out, err = run(capsys, cmd, path)
            assert (code, out) == (EXIT_INPUT, "")
            assert err == "error: discriminant form must be nondegenerate\n"

    @pytest.mark.parametrize("entries", [[-1, 3, 6], [2, 1, 3]])
    def test_definite2_diagonal_must_be_even(self, capsys, tmp_path, entries):
        path = with_transcendental(tmp_path, {"definite2": entries})
        code, out, err = run(capsys, "real", path)
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: definite2 diagonal entries must be even\n"


# -- mutated corpus documents ---------------------------------------------------

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.sampled_from([10**6, 10**12, 2**61 - 1, -(10**9)]),
    st.sampled_from(["1/2", "2/3", "1/0", "x", "", "-1/4", "3"]),
    st.floats(allow_nan=True),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(
            st.sampled_from(["degree", "twoU", "discr", "rank"]), inner, max_size=2
        ),
    ),
    max_leaves=6,
)


def document_paths(node, at=()):
    """Every path into a JSON document; of a list only the first two
    entries, so that long edge lists do not crowd out the other fields."""
    yield at
    if isinstance(node, dict):
        for key, value in node.items():
            yield from document_paths(value, at + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node[:2]):
            yield from document_paths(value, at + (i,))


def nearby(node):
    """Replacements close to `node`: another small integer for an
    integer, the first entry or nothing for a list."""
    if isinstance(node, bool):
        return st.booleans()
    if isinstance(node, int):
        return st.one_of(st.integers(-3, 12), SCALARS)
    if isinstance(node, list):
        return st.one_of(st.sampled_from(node[:1] or [None]), st.just([]), SCALARS)
    if isinstance(node, dict):
        return st.one_of(st.just({}), SCALARS)
    return SCALARS


@st.composite
def mutated(draw, doc):
    """`doc` with one or two nodes deleted or replaced."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(document_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]] if path else doc
        kind = draw(st.integers(0, 3))
        if path and kind == 0:
            del parent[path[-1]]
            continue
        new = draw(nearby(node) if kind < 3 else VALUES)
        if path:
            parent[path[-1]] = new
        else:
            doc = new
    return doc


class TestMutatedCorpus:
    @pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.json")))
    @settings(
        derandomize=True,
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_mutations_exit_cleanly(self, tmp_path, name, data):
        # a bad document exits 1, a search cap exits 3; anything else
        # escaping main() is a traceback and fails here
        doc = data.draw(mutated(json.loads((CORPUS / name).read_text())))
        cmd = data.draw(st.sampled_from(["fragments", "real", "totally-real"]))
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        start = time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([cmd, str(path), "--json"])
        assert time.process_time() - start < 5
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_CAP)
        if code != EXIT_OK:
            assert err.getvalue().startswith("error: ")


# Run in a fresh interpreter: the CLI on the arguments, then the exit code
# and the name of every module the interpreter has loaded.
LOADED_MODULES = """
import contextlib, io, sys
from k3lines.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:  # argparse exits after --help
        code = exc.code
print(code)
print(*sorted(sys.modules))
"""


def loaded_modules(*argv) -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES, *argv],
        capture_output=True,
        text=True,
        timeout=30,
        check=True,
    )
    code, modules = proc.stdout.splitlines()
    assert int(code) == EXIT_OK
    return set(modules.split())


FERMAT_DEFINITE2 = Path(__file__).resolve().parent / "data" / "fermat48_definite2.json"


class TestStartUp:
    """A fresh process loads only the modules its command runs."""

    def test_help_loads_only_the_front_end(self):
        modules = loaded_modules("--help")
        assert {m for m in modules if m.startswith("k3lines.")} == {
            "k3lines.cli",
            "k3lines.errors",
        }
        assert not modules & {"json", "hashlib"}

    def test_lattice_loads_no_configuration_module(self):
        modules = loaded_modules("lattice", "E6(3)")
        assert "k3lines.lattices" in modules
        assert not modules & {
            "k3lines.fano",
            "k3lines.multigraph",
            "k3lines.realcrit",
            "k3lines.configio",
            "k3lines.gluing",
        }

    def test_fragments_loads_no_discriminant_form_module(self):
        modules = loaded_modules("fragments", str(CORPUS / "k4.json"))
        assert "k3lines.fano" in modules
        assert not modules & {"k3lines.fqf", "k3lines.realcrit", "k3lines.gluing"}

    def test_criterion_without_a_transcendental_block_loads_no_gluing(self):
        modules = loaded_modules("totally-real", str(CORPUS / "k33.json"))
        assert "k3lines.realcrit" in modules
        assert "k3lines.gluing" not in modules

    @pytest.mark.parametrize("name", ["k33_twou3.json", "triangle_def2.json"])
    def test_fragments_on_a_transcendental_lattice_loads_no_form_module(
        self, name
    ):
        # the fragment census never reads the T block it parses
        modules = loaded_modules("fragments", str(CORPUS / name))
        assert not modules & {"k3lines.fqf", "k3lines.gluing"}

    def test_fragments_on_a_discr_block_loads_no_gluing(self):
        modules = loaded_modules("fragments", str(CORPUS / "k33_generic.json"))
        assert "k3lines.fqf" in modules
        assert "k3lines.gluing" not in modules

    def test_criterion_with_a_transcendental_block_loads_no_gluing(self):
        modules = loaded_modules("totally-real", str(CORPUS / "k33_twou3.json"))
        assert "k3lines.realcrit" in modules
        assert "k3lines.gluing" not in modules

    def test_real_without_a_transcendental_block_loads_no_gluing(self):
        modules = loaded_modules("real", str(CORPUS / "k33.json"))
        assert "k3lines.realcrit" in modules
        assert "k3lines.gluing" not in modules

    def test_fragments_without_a_transcendental_block_loads_no_lattices(self):
        modules = loaded_modules("fragments", str(CORPUS / "k4.json"))
        assert "k3lines.lattices" not in modules

    def test_real_loads_gluing(self):
        assert "k3lines.gluing" in loaded_modules("real", str(CORPUS / "k33_twou3.json"))

    @pytest.mark.parametrize(
        "argv",
        [
            ("--help",),
            ("lattice", "[8,4,8]"),
            ("fragments", str(CORPUS / "k33_twou3.json")),
            ("real", str(CORPUS / "k33_twou3.json")),
            ("totally-real", str(CORPUS / "k33_generic.json")),
        ],
    )
    def test_no_command_loads_dataclasses(self, argv):
        assert "dataclasses" not in loaded_modules(*argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ("fragments", str(FERMAT_DEFINITE2)),
            ("totally-real", str(FERMAT_DEFINITE2)),
            ("real", str(FERMAT_DEFINITE2)),
            ("lattice", "E6(3)"),
        ],
    )
    def test_a_call_that_reads_and_prints_no_rational_loads_no_fractions(
        self, argv
    ):
        assert "fractions" not in loaded_modules(*argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ("lattice", "[8,4,8]"),
            ("fragments", str(CORPUS / "k4.json")),
            ("real", str(CORPUS / "k33_twou3.json")),
            ("totally-real", str(CORPUS / "k33_generic.json")),
        ],
    )
    def test_text_output_computes_no_digest(self, argv):
        # only --json prints input_sha256, so only --json loads OpenSSL
        assert not loaded_modules(*argv) & {"hashlib", "_hashlib"}
        assert "_hashlib" in loaded_modules(*argv, "--json")

    def test_a_kernel_loads_fractions(self):
        modules = loaded_modules("fragments", str(CORPUS / "k33_glued.json"))
        assert "fractions" in modules


MAIN_TWICE = """
import sys
from k3lines.cli import main
main(sys.argv[1:4])
main(sys.argv[4:])
"""


class TestDeterminism:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_calls_in_one_process_match_separate_processes(self):
        first = ("lattice", "2U(3)", "--json")
        second = ("fragments", str(CORPUS / "cube.json"), "--json")
        together = subprocess.run(
            [sys.executable, "-c", MAIN_TWICE, *first, *second],
            capture_output=True,
            check=True,
            timeout=30,
        ).stdout
        apart = b"".join(
            subprocess.run(
                [sys.executable, "-m", "k3lines.cli", *argv],
                capture_output=True,
                check=True,
                timeout=30,
            ).stdout
            for argv in (first, second)
        )
        assert together == apart
        assert together.count(b'"command"') == 2

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


DATA = Path(__file__).resolve().parent / "data"


def fresh_process(*argv) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "k3lines.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    return proc.returncode, proc.stdout


class TestProcessTable:
    """Calls on one line lattice in one process share one `Analysis`
    (`cli.shared_analysis`), and print what separate processes print."""

    def test_fermat_session_searches_once(self, capsys, monkeypatch):
        calls = {"graph_automorphism_group": 0, "enumerate_fragments": 0}

        def counted(name):
            inner = getattr(fano, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(fano, name, counted(name))
        session = [
            ("real", str(DATA / "fermat48_definite2.json"), "--json"),
            ("fragments", str(DATA / "fermat48.json"), "--list-fragments"),
            ("totally-real", str(DATA / "fermat48.json")),
        ]
        for argv in session:
            code, out, _ = run(capsys, *argv)
            assert (code, out) == fresh_process(*argv)
        assert calls == {"graph_automorphism_group": 1, "enumerate_fragments": 1}
        assert len(cli._ANALYSES) == 1

    @pytest.mark.parametrize(
        "specs",
        [
            ({"twoU": 3}, {"twoU": 7}),
            ({"twoU": 7}, {"twoU": 3}),
            (None, {"twoU": 3}),
            ({"twoU": 3}, None),
        ],
    )
    def test_each_transcendental_spec_gets_its_own_candidates(
        self, capsys, tmp_path, specs
    ):
        # one lattice, K33 at degree 6, under two transcendental specs: each
        # call prints what it prints with the table empty
        doc = json.loads((CORPUS / "k33.json").read_text())
        paths, alone = [], []
        for i, spec in enumerate(specs):
            path = tmp_path / f"k33_{i}.json"
            path.write_text(json.dumps(dict(doc, transcendental=spec) if spec else doc))
            paths.append(str(path))
            cli._ANALYSES.clear()
            alone.append(run(capsys, "real", paths[-1], "--json"))
        cli._ANALYSES.clear()
        assert [run(capsys, "real", path, "--json") for path in paths] == alone
        assert len(cli._ANALYSES) == 1
        if None in specs:
            reasons = [
                {c["reason"] for c in json.loads(out)["candidates"]}
                for _, out, _ in alone
            ]
            assert reasons[0] != reasons[1]

    @pytest.mark.parametrize(
        "names", [("k33.json", "k33_glued.json"), ("k33_glued.json", "k33.json")]
    )
    def test_the_kernel_is_part_of_the_key(self, capsys, names):
        # K33 at degree 6, with and without the glue vector
        alone = []
        for name in names:
            cli._ANALYSES.clear()
            alone.append(run(capsys, "real", str(CORPUS / name), "--json"))
        cli._ANALYSES.clear()
        assert [run(capsys, "real", str(CORPUS / n), "--json") for n in names] == alone
        assert len(cli._ANALYSES) == 2

    def test_two_fragments_calls_read_the_invariants_from_the_table(
        self, capsys, monkeypatch
    ):
        # the first call takes the signature of N and the rank of the lines'
        # Gram form, from one congruence reduction, and the girth; the
        # second reads all three from the kept analysis
        calls = {"leading_rank_and_inertia": 0, "inertia": 0, "girth": 0}

        def counted(name, inner):
            def wrapper(*args):
                calls[name] += 1
                return inner(*args)

            return wrapper

        for module, name in (
            (fano, "leading_rank_and_inertia"),
            (lattices, "inertia"),
            (fano, "girth"),
        ):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        argv = ("fragments", str(DATA / "fermat48.json"), "--json")
        first, second = run(capsys, *argv), run(capsys, *argv)
        assert first == second
        assert first[0] == EXIT_OK
        assert calls == {"leading_rank_and_inertia": 1, "inertia": 0, "girth": 1}

    def test_real_then_totally_real_screen_once(self, capsys, monkeypatch):
        # `real` screens the identity candidate and `totally-real` reads the
        # same verdict of D_N from the kept analysis
        alone = []
        for command in ("real", "totally-real"):
            cli._ANALYSES.clear()
            alone.append(run(capsys, command, str(CORPUS / "k33.json")))
        cli._ANALYSES.clear()
        calls = []
        inner = realcrit.totally_real_criterion

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(realcrit, "totally_real_criterion", counted)
        together = [
            run(capsys, command, str(CORPUS / "k33.json"))
            for command in ("real", "totally-real")
        ]
        assert together == alone
        assert len(calls) == 1

    def test_library_calls_leave_the_table_empty(self):
        cfg = fano.LineConfiguration(6, fano.catalog_graph("K33"))
        analysis = fano.Analysis(cfg)
        assert analysis.real_structure_candidates(None)
        assert analysis.verdict.kind == "YES_CONTAINS_2"
        assert fano.enumerate_fragments(cfg)
        assert cli._ANALYSES == {}

    def test_a_capped_call_keeps_no_value_for_the_capped_item(
        self, capsys, monkeypatch
    ):
        argv = ("real", str(CORPUS / "cube.json"))
        monkeypatch.setattr(multigraph, "AUTOMORPHISM_NODE_CAP", 1)
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (EXIT_CAP, "")
        (analysis,) = cli._ANALYSES.values()
        assert "automorphisms" not in vars(analysis)
        assert "stabilizer" not in vars(analysis)
        monkeypatch.undo()
        code, out, _ = run(capsys, *argv)
        assert (code, out) == fresh_process(*argv)
        assert code == EXIT_OK
        assert "automorphisms" in vars(analysis)
