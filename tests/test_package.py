"""The lazily resolved package namespace and the immutable value records."""

from __future__ import annotations

import ast
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest

import k3lines
from k3lines.fano import (
    Fragment,
    LineConfiguration,
    PolarizedIsometry,
    RealCandidate,
    catalog_graph,
)
from k3lines.fqf import finite_quadratic_form
from k3lines.gluing import minus_identity_isometry, t_side_involution_classes
from k3lines.lattices import (
    Definite2,
    GenericDiscr,
    TwoU,
    build_lattice,
    discriminant_data,
)
from k3lines.multigraph import Multigraph
from k3lines.realcrit import Verdict

from helpers import identity_isometry, involution_classes


def test_every_export_resolves():
    for name in k3lines.__all__:
        value = getattr(k3lines, name)
        module = getattr(value, "__module__", None)
        if module is not None and module.startswith("k3lines."):
            assert getattr(import_module(module), name) is value
    assert set(k3lines.__all__) <= set(dir(k3lines))


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from k3lines import *", namespace)
    assert set(k3lines.__all__) <= set(namespace)
    assert namespace["Lattice"] is build_lattice("U").__class__


ROOT = Path(__file__).resolve().parent.parent

# Exported with no caller yet, kept because an open ROADMAP item may call
# them: the eigenlattices T^+ and T^- of item 8 stage 2 and their glue.
PLANNED = {"invariant_sublattice", "isotropic_quotient"}

# Moved to tests/helpers.py: the tests were their only callers.
MOVED = {
    "read_configuration",
    "class_sum_in_radical",
    "fqf_isometries",
    "discriminant_form",
    "invariants_match",
    "involution_classes",
}


def referenced_names() -> set[str]:
    """Every name the package's modules (its namespace aside) and the demos
    read, call or import; a definition alone does not count."""
    files = [
        p for p in (ROOT / "src" / "k3lines").glob("*.py") if p.name != "__init__.py"
    ]
    names = set()
    for path in files + sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_export_has_a_caller():
    exports = {n for n in k3lines.__all__ if n != "__version__"}
    used = referenced_names()
    assert sorted(exports - used) == sorted(PLANNED)
    assert not exports & MOVED


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="has no attribute 'Latice'"):
        k3lines.Latice


def _form():
    return finite_quadratic_form((3,), (Fraction(2, 3),), [[Fraction(2, 3)]])


# One builder per record class: each call constructs a new, equal instance.
RECORDS = {
    "Multigraph": lambda: Multigraph(((0, 1), (1, 0))),
    "LineConfiguration": lambda: LineConfiguration(
        4, catalog_graph("K4"), kernel=((0, 0, 0, 0, 0),)
    ),
    "Fragment": lambda: Fragment((0, 1, 2, 3), "K4"),
    "PolarizedIsometry": lambda: PolarizedIsometry((1, 0), -1),
    "RealCandidate": lambda: RealCandidate(
        PolarizedIsometry((0, 1), -1), 1, 0, "UNKNOWN", "no data"
    ),
    "FiniteQuadraticForm": _form,
    "FqfIsometry": lambda: minus_identity_isometry(_form()),
    "InvolutionClass": lambda: involution_classes(_form())[0],
    "Lattice": lambda: build_lattice("A2"),
    "Isometry": lambda: identity_isometry(build_lattice("A2")),
    "DiscriminantData": lambda: discriminant_data(build_lattice("A2").gram),
    "Verdict": lambda: Verdict("NO", ("a reason",)),
    "Definite2": lambda: Definite2(build_lattice("[2,1,2]")),
    "TwoU": lambda: TwoU(3),
    "GenericDiscr": lambda: GenericDiscr(_form(), 2),
    "TSideClasses": lambda: t_side_involution_classes(TwoU(1)),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_compare_and_hash_by_value(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert type(a).__name__ == name
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert {a: name}[b] == name
    assert a != object()
    fields = ", ".join(f"{f}={getattr(a, f)!r}" for f in a._fields)
    assert repr(a) == f"{name}({fields})"


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_fields_cannot_be_assigned(name):
    record = RECORDS[name]()
    for field in record._fields:
        before = getattr(record, field)
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(record, field)
        assert getattr(record, field) is before
    with pytest.raises(AttributeError):
        record.extra = 1


def test_derived_attributes_take_no_part_in_identity():
    cfg = RECORDS["LineConfiguration"]()
    assert cfg.kernel_pairings == ((0, 0, 0, 0, 0),)
    assert "kernel_pairings" not in repr(cfg)
    tside = RECORDS["TSideClasses"]()
    tside.gluing(tside.form)  # fills the per-instance cache
    assert tside == RECORDS["TSideClasses"]()
    assert "_antis" not in repr(tside)


def test_cached_properties_work_on_records():
    lattice = build_lattice("A2")
    assert lattice.signature == (0, 2, 0)
    assert vars(lattice)["signature"] == (0, 2, 0)
    assert lattice == build_lattice("A2")
    graph = Multigraph(((0, 1), (1, 0)))
    assert graph.adjacency == (((1, 1),), ((0, 1),))
