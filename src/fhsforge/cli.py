"""Command-line interface.

Subcommands: cosets, factor, code, mindist, build, verify, bounds,
pf-identity.  Exit codes: 0 verified/optimal, 2 verified-but-claim-mismatch,
3 over budget, parameters-only, or a factor table, bound or pf-identity
grid past its size caps, 4 input error, usage errors included.  The codeword
enumeration cap is set by --cap alone; under `build --cap 1` no family code
is enumerated.  `build` removes from --out the outputs of an earlier build
that it does not write itself.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__
from .bounds import optimality_report, pf_identity_sweep
from .constructions import family_a, family_b, family_c, family_ding
from .cyclic import (
    ENUMERATION_CAP,
    _full_orbits,
    _short_constants,
    build_code,
    cyclotomic_cosets,
    factor_x_pow_n_minus_one,
    min_distance_exhaustive,
)
from .errors import BoundTooLarge, BudgetExceeded, FactorTableTooLarge
from .errors import FhsForgeError, ParseError
from .fhs import DEFAULT_CORRELATION_BUDGET, FhsSet, max_nontrivial
from .galois import field_from_order

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_BUDGET = 3
EXIT_INPUT = 4


def _enum_cap(args) -> int:
    """The enumeration cap: --cap, else the default."""
    if args.cap is None:
        return ENUMERATION_CAP
    if args.cap < 1:
        raise ParseError(f"the enumeration cap --cap must be >= 1, got {args.cap}")
    return args.cap


def _budget(args) -> int | None:
    """The correlation budget; 0 lifts it."""
    if args.budget < 0:
        raise ParseError(f"--budget must be >= 0, got {args.budget}")
    return args.budget or None


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(path: Path, data: bytes) -> str:
    try:
        path.write_bytes(data)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc
    return hashlib.sha256(data).hexdigest()


def _poly_str(coeffs) -> str:
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append("x" if c == 1 else f"{c}*x")
        else:
            terms.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
    return " + ".join(terms) if terms else "0"


def _parse_residues(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ParseError(f"bad residue list {text!r}") from exc


def cmd_cosets(args) -> int:
    cosets = cyclotomic_cosets(args.n, args.q)
    if args.json:
        print(_dump({
            "n": args.n,
            "q": args.q,
            "cosets": [list(c) for c in cosets],
        }), end="")
    else:
        for c in cosets:
            print(f"C_{c[0]} = {{{', '.join(map(str, c))}}}")
    return EXIT_OK


def cmd_factor(args) -> int:
    field = field_from_order(args.q)
    factors = factor_x_pow_n_minus_one(field, args.n)
    if args.json:
        print(_dump({
            "n": args.n,
            "q": args.q,
            "factors": [
                {"coset": list(c), "coefficients": list(m.coeffs)}
                for c, m in factors
            ],
        }), end="")
    else:
        print(f"x^{args.n} - 1 over GF({args.q}):")
        for c, m in factors:
            print(f"  C_{c[0]}: {_poly_str(m.coeffs)}")
    return EXIT_OK


def _code_from_args(args):
    field = field_from_order(args.q)
    residues = _parse_residues(args.defining_set)
    if args.cosets_given:
        # the given residues stay, so that build_code refuses one outside 0..n-1
        residues += [j for coset in cyclotomic_cosets(args.n, args.q)
                     if any(r in coset for r in residues) for j in coset]
    return build_code(args.n, field, residues)


def cmd_code(args) -> int:
    code = _code_from_args(args)
    info, nonzeros = code.export_dict(), code.nonzeros
    full = _full_orbits(code.n, nonzeros)
    if 0 in nonzeros:
        info["full_orbits_outside_constants"] = full
    if nonzeros:
        info["full_orbits_nonzero"] = full and not _short_constants(code.n, nonzeros)
    if args.json:
        print(_dump(info), end="")
    else:
        print(f"[{code.n}, {code.dimension}] cyclic code over {code.field}")
        print(f"  defining set: {list(code.defining_set)}")
        print(f"  g(x) = {_poly_str(code.generator.coeffs)}")
        print(f"  h(x) = {_poly_str(code.check.coeffs)}")
        for key in ("full_orbits_outside_constants", "full_orbits_nonzero"):
            if key in info:
                print(f"  {key}: {info[key]}")
    return EXIT_OK


def cmd_mindist(args) -> int:
    code = _code_from_args(args)
    d = min_distance_exhaustive(code, cap=_enum_cap(args))
    mds = d == code.n - code.dimension + 1
    print(f"[{code.n}, {code.dimension}, {d}] over {code.field}"
          f"{'  (MDS)' if mds else ''}")
    return EXIT_OK


def cmd_bounds(args) -> int:
    report = optimality_report(args.n, args.N, args.ell, args.lam)
    print(_dump(report.to_json_dict()), end="")
    return EXIT_OK


def cmd_pf_identity(args) -> int:
    report = pf_identity_sweep(args.n_max, args.N_max, args.l_max)
    print(_dump(report.to_json_dict()), end="")
    return EXIT_OK if report.ok else EXIT_MISMATCH


# the flags each family's builder needs; `cmd_build` looks the builder up
# by name when it runs, and Ding's takes no caps
_FAMILIES = {"A": ("m", "k"), "B": ("q",), "C": ("q", "n", "k"), "Ding": ("q", "m")}
# the message of a build that exits 3 because it is the first claim, by
# name, that was not proved
_UNPROVED = {
    "class_count": "parameters-only (enumeration beyond cap)",
    "class_sizes": "parameters-only (enumeration beyond cap)",
    "lambda_match": "correlation not verified (over budget; raise --budget, "
                    "or lift it with --budget 0)",
}


def cmd_build(args) -> int:
    start = time.monotonic()
    cap = _enum_cap(args)
    budget = _budget(args)
    flags = _FAMILIES[args.family]
    values = [getattr(args, flag) for flag in flags]
    if None in values:
        *rest, last = [f"--{flag}" for flag in flags]
        needs = f"{', '.join(rest)} and {last}" if rest else last
        raise ParseError(f"family {args.family} needs {needs}")
    caps = {} if args.family == "Ding" else {"enum_cap": cap, "budget": budget}
    build = globals()[f"family_{args.family.lower()}"](*values, **caps)

    outputs = {"family.json": _dump(build.export_dict()).encode(),
               "code.json": _dump(build.code.export_dict()).encode()}
    if build.fhs is not None:
        outputs["fhs_set.json"] = build.fhs.to_json_bytes()
        if args.csv:
            outputs["fhs_set.csv"] = build.fhs.to_csv_bytes()
    if build.report is not None:
        outputs["bound_report.json"] = _dump(build.report.to_json_dict()).encode()
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParseError(f"cannot create {outdir}: {exc}") from exc
    # an earlier build's output that this one does not write would sit
    # beside this manifest, unlisted, and `verify` would read it
    for name in ("fhs_set.json", "fhs_set.csv", "bound_report.json"):
        if name not in outputs:
            try:
                (outdir / name).unlink(missing_ok=True)
            except OSError as exc:
                raise ParseError(f"cannot remove {outdir / name}: {exc}") from exc
    digests = {name: _write(outdir / name, data) for name, data in outputs.items()}
    manifest = {
        "command": "build",
        "params": build.params,
        "caps": {"enumeration_cap": cap, "correlation_budget": budget},
        "version": __version__,
        "wall_clock_s": round(time.monotonic() - start, 3),
        "outputs": digests,
    }
    _write(outdir / "manifest.json", _dump(manifest).encode())

    verdicts = build.verdicts()
    for name, verdict in verdicts.items():
        print(f"check {name}: {verdict}")
    _, measured = build.claims.get("lambda_match", (None, None))
    if measured is not None:
        print(f"correlation sweep: exhaustive, max = {measured}")
    if False in verdicts.values():
        print("CLAIM MISMATCH")
        return EXIT_MISMATCH
    unproved = [name for name, verdict in verdicts.items() if verdict is None]
    print(_UNPROVED[unproved[0]] if unproved else "verified")
    return EXIT_BUDGET if unproved else EXIT_OK


def cmd_verify(args) -> int:
    budget = _budget(args)
    # ValueError covers bytes that are not UTF-8, malformed JSON and an
    # integer past the int-to-str limit; RecursionError, nesting too deep.
    try:
        fset = FhsSet.from_json_dict(Path(args.path).read_bytes())
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read {args.path}: {exc}") from exc
    stored = fset.max_correlation
    if stored is None:
        raise ParseError("stored record has no lambda to verify against")
    try:
        survey = max_nontrivial(fset, budget=budget)
    except BudgetExceeded as exc:
        print(f"correlation not verified: {exc}")
        return EXIT_BUDGET
    print(f"stored lambda = {stored}; measured (exhaustive) = {survey.value}")
    i, j, t = survey.witness
    print(f"witness: correlation(sequences[{i}], sequences[{j}], {t}) = {survey.value}")
    return EXIT_OK if survey.value == stored else EXIT_MISMATCH


def _add_code_args(sub):
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--defining-set", required=True,
                     help="comma-separated residues (a union of cosets)")
    sub.add_argument("--cosets-given", action="store_true",
                     help="treat --defining-set entries as coset representatives")


class _Exit(Exception):
    """A parser's request to end with `status`, after --help or --version."""

    def __init__(self, status: int):
        super().__init__(status)
        self.status = status


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParseError (exit 4) instead of exiting with 2,
    which means a claim mismatch here.  So argparse calls `exit` only
    after --help or --version have printed, and it raises _Exit, so that
    `main` returns their status instead of exiting."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")

    def exit(self, status=0, message=None):
        raise _Exit(status)


@functools.lru_cache(maxsize=None)
def make_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves it unchanged, and each
    `main` call gets its own namespace."""
    parser = _Parser(
        prog="fhsforge",
        description="Optimal frequency-hopping sequence sets from MDS cyclic "
                    "codes, with exact bound verification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("cosets", help="q-cyclotomic cosets mod n")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_cosets)

    s = subs.add_parser("factor", help="irreducible factors of x^n - 1 over GF(q)")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_factor)

    s = subs.add_parser("code", help="build and inspect a cyclic code")
    _add_code_args(s)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_code)

    s = subs.add_parser("mindist", help="exhaustive minimum distance")
    _add_code_args(s)
    s.add_argument("--cap", type=int, default=None)
    s.set_defaults(func=cmd_mindist)

    s = subs.add_parser("build", help="construct a family instance and verify it")
    s.add_argument("--family", choices=list(_FAMILIES), required=True)
    s.add_argument("--q", type=int)
    s.add_argument("--m", type=int)
    s.add_argument("--k", type=int)
    s.add_argument("--n", type=int)
    s.add_argument("--out", default=".")
    s.add_argument("--csv", action="store_true")
    s.add_argument("--cap", type=int, default=None)
    s.add_argument("--budget", type=int, default=DEFAULT_CORRELATION_BUDGET)
    s.set_defaults(func=cmd_build)

    s = subs.add_parser("verify", help="re-measure M(F) of an exported set")
    s.add_argument("path")
    s.add_argument("--budget", type=int, default=DEFAULT_CORRELATION_BUDGET)
    s.set_defaults(func=cmd_verify)

    s = subs.add_parser("bounds", help="bound report for raw (n, N, ell, lambda)")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--N", type=int, required=True)
    s.add_argument("--ell", type=int, required=True)
    s.add_argument("--lambda", type=int, required=True, dest="lam")
    s.set_defaults(func=cmd_bounds)

    s = subs.add_parser("pf-identity", help="sweep the two Peng-Fan bound forms")
    s.add_argument("--n-max", type=int, default=40)
    s.add_argument("--N-max", type=int, default=200)
    s.add_argument("--l-max", type=int, default=60)
    s.set_defaults(func=cmd_pf_identity)

    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        return args.func(args)
    except _Exit as exc:
        return exc.status
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FhsForgeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        too_large = isinstance(exc, (FactorTableTooLarge, BoundTooLarge))
        return EXIT_BUDGET if too_large else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
