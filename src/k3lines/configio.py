"""Reading line-configuration descriptions from structured text.

The on-disk format is JSON with a fixed field set: `degree`, `vertices`,
`edges`, and optional `kernel` and `transcendental` blocks.  Unknown fields
are rejected so that typos fail loudly instead of being ignored.  Fractions
are written as strings "a/b"; plain integers are also accepted.  A
`transcendental` block becomes one of the `lattices` specs.  `fractions` is
imported by the parsers that read a rational and `fqf` by the one that
builds a `discr` form, so a configuration with no kernel and no `discr`
block loads neither.  `load_configuration` parses text; the caller reads
the file (the CLI with `errors.read_utf8`, once).
"""

from __future__ import annotations

import json

from .errors import InputError
from .fano import LineConfiguration
from .lattices import Definite2, GenericDiscr, Lattice, TwoU
from .multigraph import Multigraph

# The largest line count accepted, checked before the n x n multiplicity
# matrix is built: 100,000 vertices would exhaust memory and 3,000 took 2 s
# only to load.  The value rests on cost, not on geometry.  The corpus, the
# tests and the benchmark use at most 48 lines (the Fermat quartic); at 200
# lines the slowest input measured, an edgeless graph, runs `fragments` in
# a fresh process in 1.7-2.0 s of CPU and 49 MB max RSS (2-core host,
# Python 3.11.7).  Published maxima of line counts per degree are not
# reproduced or checked in this repository, so none is relied on here.
MAX_LINES = 200

_TOP_FIELDS = {"degree", "vertices", "edges", "kernel", "transcendental"}
_KERNEL_FIELDS = {"numerators", "denominator"}
_DISCR_FIELDS = {"factors", "qvalues", "pairing"}


def parse_fraction(value) -> Fraction:
    from fractions import Fraction

    if isinstance(value, bool):
        raise InputError(f"expected a fraction, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad fraction {value!r}: {exc}") from None
    raise InputError(f"expected a fraction, got {value!r}")


def _require_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def _require_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list, got {value!r}")
    return value


def _check_fields(obj: dict, allowed: set, what: str) -> None:
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise InputError(
            f"unknown field(s) in {what}: {', '.join(sorted(unknown))}"
        )


def _parse_edges(raw, n: int) -> Multigraph:
    if not isinstance(raw, list):
        raise InputError("edges must be a list of [i, j, multiplicity]")
    edges = []
    for item in raw:
        if not (isinstance(item, list) and len(item) == 3):
            raise InputError(f"bad edge entry {item!r}")
        i = _require_int(item[0], "edge endpoint")
        j = _require_int(item[1], "edge endpoint")
        mult = _require_int(item[2], "edge multiplicity")
        if mult < 1:
            raise InputError(f"edge multiplicity must be positive: {item!r}")
        if not i < j:
            raise InputError(
                f"edge [{i}, {j}] must list the smaller vertex first"
            )
        edges.append((i, j, mult))
    return Multigraph.from_edges(n, edges)


def _parse_kernel(raw, n: int):
    from fractions import Fraction

    if not isinstance(raw, list):
        raise InputError("kernel must be a list of objects")
    vectors = []
    for item in raw:
        _check_fields(item, _KERNEL_FIELDS, "kernel entry")
        if _KERNEL_FIELDS - set(item):
            raise InputError(
                "kernel entry needs both numerators and denominator"
            )
        nums = item["numerators"]
        if not isinstance(nums, list) or len(nums) != n + 1:
            raise InputError(
                f"kernel numerators must be a list of {n + 1} integers"
            )
        denom = _require_int(item["denominator"], "kernel denominator")
        if denom < 1:
            raise InputError("kernel denominator must be positive")
        vectors.append(
            tuple(
                Fraction(_require_int(x, "kernel numerator"), denom)
                for x in nums
            )
        )
    return tuple(vectors)


def _parse_transcendental(raw) -> TranscendentalSpec:
    if not isinstance(raw, dict):
        raise InputError("transcendental must be an object")
    keys = set(raw)
    if keys == {"definite2"}:
        entries = raw["definite2"]
        if not (isinstance(entries, list) and len(entries) == 3):
            raise InputError("definite2 takes [a, b, c]")
        a, b, c = (_require_int(x, "definite2 entry") for x in entries)
        if a % 2 or c % 2:
            raise InputError("definite2 diagonal entries must be even")
        return Definite2(Lattice(((a, b), (b, c))))
    if keys == {"twoU"}:
        return TwoU(_require_int(raw["twoU"], "twoU scale"))
    if keys == {"discr", "rank"}:
        from .fqf import finite_quadratic_form  # loaded only for a form

        block = raw["discr"]
        _check_fields(block, _DISCR_FIELDS, "discr block")
        if _DISCR_FIELDS - set(block):
            raise InputError(
                "discr block needs factors, qvalues, and pairing"
            )
        factors, qvalues, pairing = (
            _require_list(block[key], f"discr {key}")
            for key in ("factors", "qvalues", "pairing")
        )
        factors = [_require_int(x, "discr factor") for x in factors]
        qvalues = [parse_fraction(x) for x in qvalues]
        pairing = [
            [parse_fraction(x) for x in _require_list(row, "discr pairing row")]
            for row in pairing
        ]
        if len(qvalues) != len(factors) or any(
            len(row) != len(factors) for row in pairing
        ) or len(pairing) != len(factors):
            raise InputError("discr block dimensions disagree")
        try:
            form = finite_quadratic_form(factors, qvalues, pairing)
        except ValueError as exc:
            raise InputError(f"bad discriminant form: {exc}") from None
        return GenericDiscr(form, _require_int(raw["rank"], "rank"))
    raise InputError(
        "transcendental must be one of {definite2}, {twoU}, or {discr, rank}"
    )


def load_configuration(text: str) -> LineConfiguration:
    """Parse a JSON configuration document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON: {exc}") from None
    _check_fields(doc, _TOP_FIELDS, "configuration")
    for field in ("degree", "vertices", "edges"):
        if field not in doc:
            raise InputError(f"missing required field {field!r}")
    degree = _require_int(doc["degree"], "degree")
    n = _require_int(doc["vertices"], "vertices")
    if n < 1:
        raise InputError("vertices must be at least 1")
    if n > MAX_LINES:
        raise InputError(f"{n} vertices exceed the limit of {MAX_LINES} lines")
    graph = _parse_edges(doc["edges"], n)
    kernel = _parse_kernel(doc["kernel"], n) if "kernel" in doc else ()
    transcendental = (
        _parse_transcendental(doc["transcendental"])
        if "transcendental" in doc
        else None
    )
    return LineConfiguration(
        degree, graph, kernel=kernel, transcendental=transcendental
    )
