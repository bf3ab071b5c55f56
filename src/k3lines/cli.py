"""Command-line front end.

Four subcommands: `lattice` prints the arithmetic invariants of a lattice
expression, `fragments` runs the census on a configuration file, `real`
lists real-structure candidates, and `totally-real` evaluates the
existence criterion.  Calls on one line lattice share its one `Analysis`
(`shared_analysis`).  All output is buffered and emitted once; machine
output (--json) is schema-stable and byte-identical from run to run.

Exit codes: 0 success, 1 input error, 2 an UNKNOWN verdict under --strict,
3 internal enumeration cap exceeded.

Each command imports the library modules it runs inside its own function,
so a fresh process loads only those: `--help` none, `lattice` no
configuration machinery.  The argument parser is built once per process.
Input files are read once, as UTF-8.  Only --json prints the digest of the
bytes read (`input_sha256`), so only --json loads `json` and `hashlib`.
"""

from __future__ import annotations

import argparse
import functools
import sys
from math import gcd
from pathlib import Path

from .errors import CapExceeded, InputError, read_utf8

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_STRICT = 2
EXIT_CAP = 3


def _ratio_str(num: int, den: int) -> str:
    """num / den in lowest terms: "a/b", or "a" for an integer."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}".removesuffix("/1")


def _emit(report: dict, lines: list[str], as_json: bool, source: bytes) -> None:
    """Print the text lines, or under --json the report with the digest of
    the input's bytes added."""
    if as_json:
        import hashlib
        import json

        report["input_sha256"] = hashlib.sha256(source).hexdigest()
        sys.stdout.write(
            json.dumps(report, sort_keys=True, indent=2) + "\n"
        )
    else:
        sys.stdout.write("\n".join(lines) + "\n")


def _read_source(arg: str) -> tuple[str, bytes]:
    """Expression text and the bytes it came from; file contents when arg
    is a path."""
    path = Path(arg)
    try:
        is_file = path.is_file()
    except OSError:  # e.g. an expression too long to be a file name
        is_file = False
    if is_file:
        data, text = read_utf8(path)
        return text.strip(), data
    expr = arg.strip()
    return expr, expr.encode()


def cmd_lattice(args) -> int:
    from .fqf import brown_invariant
    from .lattices import build_lattice, discriminant_data

    expr, source = _read_source(args.spec)
    lattice = build_lattice(expr)
    pos, neg, zero = lattice.signature
    if zero:
        raise InputError("degenerate lattice has no discriminant form")
    form = discriminant_data(lattice.gram).form
    det = lattice.determinant
    ell_table = {str(p): part.rank() for p, part in form.parts.items()}
    brown = brown_invariant(form)
    qvalues = [_ratio_str(q, form.exponent()) for q in form.qn]
    milgram_ok = (pos - neg - brown) % 8 == 0
    report = {
        "command": "lattice",
        "input": args.spec,
        "rank": lattice.rank,
        "signature": [pos, neg],
        "determinant": det,
        "discriminant": {
            "factors": list(form.orders),
            "qvalues": qvalues,
        },
        "ell": ell_table,
        "brown": brown,
        "milgram": "ok" if milgram_ok else "FAIL",
    }
    group = (
        " x ".join(f"Z/{d}" for d in form.orders) if form.orders else "0"
    )
    lines = [
        f"lattice {expr}",
        f"  rank {lattice.rank}, signature ({pos}, {neg}), "
        f"determinant {det}",
        f"  discriminant group: {group}",
    ]
    if form.orders:
        lines.append(f"  q-values on generators: {', '.join(qvalues)}")
    for p, length in ell_table.items():
        lines.append(f"  ell_{p} = {length}")
    lines.append(
        f"  Brown invariant {brown}, Milgram check "
        f"{'ok' if milgram_ok else 'FAIL'} "
        f"(signature {(pos - neg) % 8} mod 8)"
    )
    _emit(report, lines, args.json, source)
    return EXIT_OK


def _load(args):
    from .configio import load_configuration

    if args.threads is not None and args.threads < 1:
        raise InputError("--threads must be at least 1")
    path = Path(args.file)
    if not path.is_file():
        raise InputError(f"no such file: {args.file}")
    data, text = read_utf8(path)
    return load_configuration(text), data


_ANALYSES: dict = {}  # (degree, graph, kernel rows) -> the Analysis of that N


def shared_analysis(cfg):
    """The process's one `Analysis` of cfg's line lattice, keyed by (degree,
    graph, kernel numerators, kernel denominator), not by the
    transcendental spec."""
    from .fano import Analysis

    key = (cfg.degree, cfg.graph, cfg.kernel_numerators, cfg.kernel_denominator)
    analysis = _ANALYSES.get(key)
    if analysis is None:
        analysis = _ANALYSES[key] = Analysis(cfg)
    return analysis


def cmd_fragments(args) -> int:
    cfg, source = _load(args)
    analysis = shared_analysis(cfg)
    warnings = analysis.warnings
    fragments = analysis.fragments
    rank, girth_value = analysis.lines_rank, analysis.girth
    aut_order = analysis.automorphisms.order()
    by_type: dict[str, int] = {}
    for fr in fragments:
        by_type[fr.type_label] = by_type.get(fr.type_label, 0) + 1
    report = {
        "command": "fragments",
        "input": args.file,
        "lines": cfg.line_count,
        "degree": cfg.degree,
        "invariants": {
            "rank": rank,
            "girth": girth_value,
            "aut_order": aut_order,
        },
        "total": len(fragments),
        "by_type": dict(sorted(by_type.items())),
        "warnings": list(warnings),
    }
    if args.list_fragments:
        report["fragments"] = [
            {"vertices": list(fr.vertices), "type": fr.type_label}
            for fr in fragments
        ]
    girth_text = "none" if girth_value is None else str(girth_value)
    lines = [
        f"configuration: {cfg.line_count} lines, degree {cfg.degree}",
        f"invariants: r = {rank}, girth = {girth_text}, "
        f"|Aut| = {aut_order}",
        f"fragments: {len(fragments)} total",
    ]
    for label in sorted(by_type):
        lines.append(f"  {label}: {by_type[label]}")
    if args.list_fragments:
        for fr in fragments:
            lines.append(f"  {list(fr.vertices)}  {fr.type_label}")
    for w in warnings:
        lines.append(f"warning: {w}")
    _emit(report, lines, args.json, source)
    return EXIT_OK


def cmd_real(args) -> int:
    from .fano import UNKNOWN

    cfg, source = _load(args)
    candidates = shared_analysis(cfg).real_structure_candidates(
        cfg.transcendental
    )
    report = {
        "command": "real",
        "input": args.file,
        "candidates": [
            {
                "permutation": list(c.isometry.permutation),
                "sign": c.isometry.sign,
                "numR": c.num_r,
                "numRR": c.num_rr,
                "admissibility": c.admissibility,
                "reason": c.reason,
                "notes": list(c.notes),
            }
            for c in candidates
        ],
    }
    lines = [f"candidates (up to conjugacy): {len(candidates)}"]
    for c in candidates:
        perm = " ".join(str(i) for i in c.isometry.permutation)
        lines.append(
            f"  sigma = ({perm}), sign {c.isometry.sign:+d}: "
            f"numR {c.num_r}, numRR {c.num_rr}, {c.admissibility}"
        )
        lines.append(f"    reason: {c.reason}")
        for note in c.notes:
            lines.append(f"    note: {note}")
    _emit(report, lines, args.json, source)
    if args.strict and any(
        c.admissibility == UNKNOWN for c in candidates
    ):
        return EXIT_STRICT
    return EXIT_OK


def cmd_totally_real(args) -> int:
    from .realcrit import VERDICT_UNKNOWN

    cfg, source = _load(args)
    analysis = shared_analysis(cfg)
    r = analysis.r
    det_n = analysis.det_n
    verdict = analysis.verdict
    warnings = list(analysis.warnings)
    report = {
        "command": "totally-real",
        "input": args.file,
        "rank_n": analysis.rank_n,
        "r": r,
        "det_n": det_n,
        "verdict": verdict.kind,
        "trace": list(verdict.reasons),
        "warnings": warnings,
    }
    lines = [
        f"rank N = {analysis.rank_n}, r = {r}, det N = {det_n}",
        f"verdict: {verdict.kind}",
    ]
    for reason in verdict.reasons:
        lines.append(f"  - {reason}")
    for w in warnings:
        lines.append(f"warning: {w}")
    _emit(report, lines, args.json, source)
    if args.strict and verdict.kind == VERDICT_UNKNOWN:
        return EXIT_STRICT
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    `main` call, so callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="k3lines",
        description=(
            "Exact-arithmetic census of line configurations on polarized "
            "K3 surfaces: split hyperplane sections and real structures."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    lat = sub.add_parser(
        "lattice", help="invariants of a lattice expression or file"
    )
    lat.add_argument("spec", help="expression like '[8,4,8]' or a file")
    lat.add_argument("--json", action="store_true")
    lat.set_defaults(func=cmd_lattice)

    def config_command(name, func, help_text, strict=False, extra=None):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("file", help="configuration file (JSON)")
        cmd.add_argument("--json", action="store_true")
        cmd.add_argument(
            "--threads",
            type=int,
            default=None,
            help="accepted for compatibility and ignored: every analysis "
            "runs on one thread (must be at least 1)",
        )
        if strict:
            cmd.add_argument(
                "--strict",
                action="store_true",
                help="exit 2 on UNKNOWN verdicts",
            )
        if extra:
            extra(cmd)
        cmd.set_defaults(func=func)
        return cmd

    config_command(
        "fragments",
        cmd_fragments,
        "count split hyperplane sections",
        extra=lambda cmd: cmd.add_argument(
            "--list-fragments",
            action="store_true",
            help="print explicit vertex subsets",
        ),
    )
    config_command(
        "real",
        cmd_real,
        "real-structure candidates with fragment counts",
        strict=True,
    )
    config_command(
        "totally-real",
        cmd_totally_real,
        "evaluate the totally-real existence criterion",
        strict=True,
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except CapExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
