"""Command-line interface.

Subcommands: cosets, factor, code, mindist, build, verify, bounds,
pf-identity.  Exit codes: 0 verified/optimal, 2 verified-but-claim-mismatch,
3 over budget or parameters-only, 4 input error, usage errors included.
The enumeration cap honors the FHSFORGE_CAP environment variable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .bounds import optimality_report, pf_identity_sweep
from .constructions import family_a, family_b, family_c, family_ding
from .cyclic import (
    ENUMERATION_CAP,
    build_code,
    cyclotomic_cosets,
    factor_x_pow_n_minus_one,
    has_full_orbits_nonzero,
    has_full_orbits_outside_constants,
    min_distance_exhaustive,
)
from .errors import BudgetExceeded, FhsForgeError, ParseError
from .fhs import DEFAULT_CORRELATION_BUDGET, FhsSet, max_nontrivial
from .galois import field_from_order

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_BUDGET = 3
EXIT_INPUT = 4


def _enum_cap(args) -> int:
    if getattr(args, "cap", None):
        return args.cap
    env = os.environ.get("FHSFORGE_CAP")
    if not env:
        return ENUMERATION_CAP
    try:
        return int(env)
    except ValueError as exc:
        raise ParseError(f"FHSFORGE_CAP must be an integer, got {env!r}") from exc


def _budget(args) -> int | None:
    """The correlation budget; 0 lifts it."""
    if args.budget < 0:
        raise ParseError(f"--budget must be >= 0, got {args.budget}")
    return args.budget or None


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _dump_set(record: dict) -> str:
    """An FHS set record as `_dump` writes it, except that each sequence
    takes one line: C512's 9,709 sequences take 9,725 lines, not 281,577."""
    rest = {key: value for key, value in record.items() if key != "sequences"}
    head = json.dumps(rest, indent=2, sort_keys=True)[:-2]  # up to the last "\n}"
    rows = ",\n".join(
        "    " + json.dumps(row, separators=(",", ":")) for row in record["sequences"]
    )
    return f'{head},\n  "sequences": [\n{rows}\n  ]\n}}\n'


def _write(path: Path, text: str) -> str:
    try:
        path.write_text(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc
    return hashlib.sha256(text.encode()).hexdigest()


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
            "cosets": [list(c.members) for c in cosets],
        }), end="")
    else:
        for c in cosets:
            print(f"C_{c.representative} = {{{', '.join(map(str, c.members))}}}")
    return EXIT_OK


def cmd_factor(args) -> int:
    field = field_from_order(args.q)
    factors = factor_x_pow_n_minus_one(field, args.n)
    if args.json:
        print(_dump({
            "n": args.n,
            "q": args.q,
            "factors": [
                {"coset": list(c.members), "coefficients": list(m.coeffs)}
                for c, m in factors
            ],
        }), end="")
    else:
        print(f"x^{args.n} - 1 over GF({args.q}):")
        for c, m in factors:
            print(f"  C_{c.representative}: {_poly_str(m.coeffs)}")
    return EXIT_OK


def _code_from_args(args):
    field = field_from_order(args.q)
    residues = _parse_residues(args.defining_set)
    if args.cosets_given:
        expanded = []
        for coset in cyclotomic_cosets(args.n, args.q):
            if any(r in coset.members for r in residues):
                expanded.extend(coset.members)
        residues = expanded
    return build_code(args.n, field, residues)


def cmd_code(args) -> int:
    code = _code_from_args(args)
    info = code.export_dict()
    zset = set(code.defining_set)
    if 0 not in zset:
        info["full_orbits_outside_constants"] = has_full_orbits_outside_constants(code)
    if code.dimension > 0:
        info["full_orbits_nonzero"] = has_full_orbits_nonzero(code)
    if args.json:
        print(_dump(info), end="")
    else:
        print(f"[{code.n}, {code.dimension}] cyclic code over GF({code.field.order})")
        print(f"  defining set: {sorted(zset)}")
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
    print(f"[{code.n}, {code.dimension}, {d}] over GF({code.field.order})"
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


def cmd_build(args) -> int:
    start = time.monotonic()
    cap = _enum_cap(args)
    budget = _budget(args)
    kwargs = dict(params_only=args.params_only, enum_cap=cap, budget=budget)
    if args.family == "A":
        if args.m is None or args.k is None:
            raise ParseError("family A needs --m and --k")
        build = family_a(args.m, args.k, **kwargs)
    elif args.family == "B":
        if args.q is None:
            raise ParseError("family B needs --q")
        build = family_b(args.q, **kwargs)
    elif args.family == "C":
        if args.q is None or args.n is None or args.k is None:
            raise ParseError("family C needs --q, --n and --k")
        build = family_c(args.q, args.n, args.k, **kwargs)
    else:
        if args.q is None or args.m is None:
            raise ParseError("family Ding needs --q and --m")
        build = family_ding(args.q, args.m)

    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParseError(f"cannot create {outdir}: {exc}") from exc
    digests = {}
    family_json = _dump(build.export_dict())
    digests["family.json"] = _write(outdir / "family.json", family_json)
    digests["code.json"] = _write(outdir / "code.json", _dump(build.code.export_dict()))
    if build.fhs is not None:
        digests["fhs_set.json"] = _write(
            outdir / "fhs_set.json", _dump_set(build.fhs.to_json_dict())
        )
        if args.csv:
            rows = sorted(build.fhs.sequences())
            csv_text = "\n".join(",".join(map(str, row)) for row in rows) + "\n"
            digests["fhs_set.csv"] = _write(outdir / "fhs_set.csv", csv_text)
    if build.report is not None:
        digests["bound_report.json"] = _write(
            outdir / "bound_report.json", _dump(build.report.to_json_dict())
        )
    manifest = {
        "command": "build",
        "params": build.params.export_dict(),
        "caps": {"enumeration_cap": cap, "correlation_budget": budget},
        "version": __version__,
        "wall_clock_s": round(time.monotonic() - start, 3),
        "outputs": digests,
    }
    _write(outdir / "manifest.json", _dump(manifest))

    for name, value in sorted(build.observations.items()):
        print(f"observed {name}: {value}")
    for name, value in sorted(build.checks.items()):
        print(f"check {name}: {value}")
    if build.survey is not None:
        print(f"correlation sweep: {build.survey.method}, max = {build.survey.value}")
    if not build.all_claims_hold():
        print("CLAIM MISMATCH")
        return EXIT_MISMATCH
    if build.fhs is None and build.params.family != "Ding":
        print("parameters-only (enumeration beyond cap)")
        return EXIT_BUDGET
    if build.fhs is not None and build.survey is None:
        print("correlation not verified (over budget; raise --budget, "
              "or lift it with --budget 0)")
        return EXIT_BUDGET
    print("verified")
    return EXIT_OK


def cmd_verify(args) -> int:
    budget = _budget(args)
    try:
        data = json.loads(Path(args.path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {args.path}: {exc}") from exc
    fset = FhsSet.from_json_dict(data)
    stored = fset.max_correlation
    if stored is None:
        raise ParseError("stored record has no lambda to verify against")
    try:
        survey = max_nontrivial(fset, budget=budget)
    except BudgetExceeded as exc:
        print(f"correlation not verified: {exc}")
        return EXIT_BUDGET
    print(f"stored lambda = {stored}; measured ({survey.method}) = {survey.value}")
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
    sub.add_argument("--json", action="store_true")


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParseError (exit 4) instead of exiting with 2,
    which means a claim mismatch here."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def make_parser() -> argparse.ArgumentParser:
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
    s.set_defaults(func=cmd_code)

    s = subs.add_parser("mindist", help="exhaustive minimum distance")
    _add_code_args(s)
    s.add_argument("--cap", type=int, default=None)
    s.set_defaults(func=cmd_mindist)

    s = subs.add_parser("build", help="construct a family instance and verify it")
    s.add_argument("--family", choices=["A", "B", "C", "Ding"], required=True)
    s.add_argument("--q", type=int)
    s.add_argument("--m", type=int)
    s.add_argument("--k", type=int)
    s.add_argument("--n", type=int)
    s.add_argument("--params-only", action="store_true")
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
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FhsForgeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
