"""Tests for the configuration file parser: schema strictness, fraction
syntax, and round-trips over the shipped corpus."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from k3lines.configio import MAX_LINES, load_configuration, parse_fraction
from k3lines.errors import InputError
from k3lines.fano import LineConfiguration, catalog_graph
from k3lines.lattices import Definite2, GenericDiscr, TwoU

from helpers import read_configuration

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def doc(**overrides) -> str:
    base = {
        "degree": 6,
        "vertices": 6,
        "edges": [
            [i, 3 + j, 1] for i in range(3) for j in range(3)
        ],
    }
    base.update(overrides)
    return json.dumps(base)


class TestParseFraction:
    def test_integer(self):
        assert parse_fraction(3) == Fraction(3)

    def test_string(self):
        assert parse_fraction("-7/12") == Fraction(-7, 12)

    def test_integer_string(self):
        assert parse_fraction("5") == Fraction(5)

    def test_rejects_garbage(self):
        with pytest.raises(InputError):
            parse_fraction("one half")

    def test_rejects_zero_denominator(self):
        with pytest.raises(InputError):
            parse_fraction("1/0")

    def test_rejects_bool(self):
        with pytest.raises(InputError):
            parse_fraction(True)

    def test_rejects_float(self):
        with pytest.raises(InputError):
            parse_fraction(0.5)


class TestSchema:
    def test_k33_document(self):
        cfg = load_configuration(doc())
        assert cfg.degree == 6
        assert cfg.graph == catalog_graph("K33")
        assert (cfg.kernel_numerators, cfg.kernel_denominator) == ((), 1)
        assert cfg.transcendental is None

    def test_rejects_non_json(self):
        with pytest.raises(InputError):
            load_configuration("degree: 6")

    def test_rejects_unknown_top_field(self):
        with pytest.raises(InputError, match="polarization"):
            load_configuration(doc(polarization=2))

    def test_rejects_missing_field(self):
        body = json.loads(doc())
        del body["degree"]
        with pytest.raises(InputError, match="degree"):
            load_configuration(json.dumps(body))

    def test_rejects_non_integer_degree(self):
        with pytest.raises(InputError):
            load_configuration(doc(degree="6"))

    def test_rejects_zero_vertices(self):
        with pytest.raises(InputError):
            load_configuration(doc(vertices=0, edges=[]))

    def test_line_count_limit(self):
        cfg = load_configuration(doc(vertices=MAX_LINES, edges=[]))
        assert cfg.line_count == MAX_LINES
        with pytest.raises(InputError, match=f"exceed the limit of {MAX_LINES}"):
            load_configuration(doc(vertices=MAX_LINES + 1, edges=[]))

    def test_rejects_unordered_edge(self):
        with pytest.raises(InputError, match="smaller vertex first"):
            load_configuration(doc(edges=[[3, 0, 1]]))

    def test_rejects_zero_multiplicity_edge(self):
        with pytest.raises(InputError, match="positive"):
            load_configuration(doc(edges=[[0, 1, 0]]))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(InputError, match="duplicate"):
            load_configuration(doc(edges=[[0, 1, 1], [0, 1, 2]]))

    def test_rejects_bad_edge_shape(self):
        with pytest.raises(InputError):
            load_configuration(doc(edges=[[0, 1]]))


class TestKernelParsing:
    def test_glue_vector(self):
        text = doc(
            kernel=[
                {
                    "numerators": [0, -1, -1, -1, -1, 0, 0],
                    "denominator": 2,
                }
            ]
        )
        cfg = load_configuration(text)
        assert cfg.kernel_numerators == ((0, -1, -1, -1, -1, 0, 0),)
        assert cfg.kernel_denominator == 2

    def test_rejects_wrong_length(self):
        text = doc(
            kernel=[{"numerators": [0, 0, 0], "denominator": 2}]
        )
        with pytest.raises(InputError, match="7"):
            load_configuration(text)

    def test_rejects_nonpositive_denominator(self):
        text = doc(
            kernel=[
                {"numerators": [0] * 7, "denominator": 0}
            ]
        )
        with pytest.raises(InputError, match="denominator"):
            load_configuration(text)

    def test_rejects_unknown_kernel_field(self):
        text = doc(
            kernel=[
                {
                    "numerators": [0] * 7,
                    "denominator": 2,
                    "label": "x",
                }
            ]
        )
        with pytest.raises(InputError, match="label"):
            load_configuration(text)

    def test_rejects_missing_kernel_field(self):
        text = doc(kernel=[{"numerators": [0] * 7}])
        with pytest.raises(InputError):
            load_configuration(text)


class TestTranscendentalParsing:
    def test_definite2(self):
        cfg = load_configuration(
            doc(transcendental={"definite2": [8, 4, 8]})
        )
        assert isinstance(cfg.transcendental, Definite2)
        assert cfg.transcendental.lattice.gram == ((8, 4), (4, 8))

    def test_two_u(self):
        cfg = load_configuration(doc(transcendental={"twoU": 3}))
        assert cfg.transcendental == TwoU(3)

    def test_generic_discr(self):
        spec = {
            "discr": {
                "factors": [2, 2],
                "qvalues": ["1/2", "1/2"],
                "pairing": [["1/2", "0"], ["0", "1/2"]],
            },
            "rank": 16,
        }
        cfg = load_configuration(doc(transcendental=spec))
        assert isinstance(cfg.transcendental, GenericDiscr)
        assert cfg.transcendental.rank() == 16
        assert cfg.transcendental.form.order() == 4

    def test_rejects_mixed_keys(self):
        with pytest.raises(InputError):
            load_configuration(
                doc(transcendental={"twoU": 3, "rank": 4})
            )

    def test_rejects_wrong_definite2_shape(self):
        with pytest.raises(InputError):
            load_configuration(doc(transcendental={"definite2": [8, 4]}))

    def test_rejects_discr_dimension_mismatch(self):
        spec = {
            "discr": {
                "factors": [2, 2],
                "qvalues": ["1/2"],
                "pairing": [["1/2", "0"], ["0", "1/2"]],
            },
            "rank": 16,
        }
        with pytest.raises(InputError, match="dimensions"):
            load_configuration(doc(transcendental=spec))

    def test_rejects_inconsistent_pairing(self):
        spec = {
            "discr": {
                "factors": [2],
                "qvalues": ["1/2"],
                "pairing": [["0"]],  # diagonal must equal q mod 1
            },
            "rank": 16,
        }
        with pytest.raises(InputError, match="discriminant form"):
            load_configuration(doc(transcendental=spec))

    @pytest.mark.parametrize("order", [0, -2])
    def test_rejects_nonpositive_discr_order(self, order):
        spec = {
            "discr": {
                "factors": [order],
                "qvalues": ["1/2"],
                "pairing": [["1/2"]],
            },
            "rank": 16,
        }
        with pytest.raises(
            InputError,
            match="bad discriminant form: generator orders must be positive",
        ):
            load_configuration(doc(transcendental=spec))

    def test_rejects_degenerate_discr_form(self):
        # q = 0 and b = 0 on Z/2: the generator pairs to 0 with everything,
        # which no lattice's discriminant form allows
        spec = {
            "discr": {"factors": [2], "qvalues": ["0"], "pairing": [["0"]]},
            "rank": 3,
        }
        with pytest.raises(InputError, match="must be nondegenerate"):
            load_configuration(doc(transcendental=spec))

    def test_rejects_unknown_discr_field(self):
        spec = {
            "discr": {
                "factors": [2],
                "qvalues": ["1/2"],
                "pairing": [["1/2"]],
                "genus": "II",
            },
            "rank": 16,
        }
        with pytest.raises(InputError, match="genus"):
            load_configuration(doc(transcendental=spec))


class TestCorpus:
    def test_every_corpus_file_parses(self):
        files = sorted(CORPUS.glob("*.json"))
        assert len(files) >= 11
        for path in files:
            cfg = read_configuration(path)
            assert isinstance(cfg, LineConfiguration)

    def test_missing_file(self):
        with pytest.raises(InputError, match="cannot read"):
            read_configuration(CORPUS / "no_such_file.json")

    def test_non_utf8_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"degree": 4, \xff}')
        with pytest.raises(InputError, match="not UTF-8 text"):
            read_configuration(bad)

    def test_does_not_decode_with_the_locale(self, tmp_path, monkeypatch):
        path = tmp_path / "k33.json"
        path.write_bytes((CORPUS / "k33.json").read_bytes())
        monkeypatch.setattr(Path, "read_text", None)
        assert read_configuration(path).graph == catalog_graph("K33")

    def test_catalog_file_matches_builtin(self):
        cfg = read_configuration(CORPUS / "k33.json")
        assert cfg.graph == catalog_graph("K33")
        cfg = read_configuration(CORPUS / "cube.json")
        assert cfg.graph == catalog_graph("cube")
