"""Inputs, operations and output checks of the three benchmark workloads.

`load(workload, seed, workdir)` turns a seed into the workload's inputs and
returns its operations in run order.  Each operation has a timed `run` and
an untimed `check`; the check returns the problems it found (an empty list
means the operation succeeded) and a detail that must come out the same in
a traced and an untraced pass.  The program only ever sees the generated
inputs: the benchmark calls it through its CLI and public functions.

fhsforge functions are always called through their module
(`cyclic.build_code`, not a bare `build_code`), so the span wrappers that
tracing.py installs on those modules see every call.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import itertools
import json
import math
import random
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from fhsforge import bounds, cli, cyclic, galois
from fhsforge.fhs import correlation

DATA = Path(__file__).resolve().parent / "data"

# (n, N, lambda, ell) of every stored set, checked when it is loaded.
STORED_SETS = {
    "A8k1": (9, 56, 2, 8),
    "A8k2": (9, 3640, 4, 8),
    "B5": (6, 20, 2, 5),
    "B25": (26, 600, 2, 25),
    "C512": (27, 9709, 1, 512),
}
VERIFY_SETS = ("A8k2", "B25", "C512")
SELFTEST_SETS = ("A8k1", "B5")


@dataclass(frozen=True)
class Instance:
    """A published parameter set and the `fhsforge build` flags that make it."""

    name: str
    flags: tuple[str, ...]
    q: int
    n: int
    params: tuple[int, int, int, int]  # (n, N, lambda, ell) from the paper


PAPER_INSTANCES = (
    Instance("A8k1", ("--family", "A", "--m", "3", "--k", "1"), 8, 9, (9, 56, 2, 8)),
    Instance("A8k2", ("--family", "A", "--m", "3", "--k", "2"), 8, 9, (9, 3640, 4, 8)),
    Instance("B5", ("--family", "B", "--q", "5"), 5, 6, (6, 20, 2, 5)),
    Instance("B25", ("--family", "B", "--q", "25"), 25, 26, (26, 600, 2, 25)),
    Instance("C32", ("--family", "C", "--q", "32", "--n", "11", "--k", "0"),
             32, 11, (11, 93, 1, 32)),
    Instance("C512", ("--family", "C", "--q", "512", "--n", "27", "--k", "0"),
             512, 27, (27, 9709, 1, 512)),
)

# Criterion 1's Peng-Fan identity sweep on a grid 8x larger than the test's.
PF_GRID = (80, 400, 120)
PF_TRIPLES = 3_808_774

# The criterion-7 code universe, capped at 2^14 codewords per code.
ORACLE_FIELDS = (2, 3, 4, 5, 7, 8, 9)
ORACLE_MAX_N = 30
ORACLE_MAX_CODEWORDS = 1 << 14
ORACLE_UNIVERSE_SIZE = 1668
ORACLE_DRAW = 800


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[bool], object]  # argument: whether this is the traced replay
    check: Callable[[object], tuple[list[str], object]]


def load(workload: str, seed: int, workdir: Path) -> list[Op]:
    if workload == "paper-build":
        return _paper_build(seed, workdir)
    if workload == "paper-verify":
        return _paper_verify(seed, workdir)
    if workload == "orbit-oracle":
        return _orbit_oracle(seed)
    raise ValueError(f"unknown workload {workload!r}")


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv by exiting
            code = exc.code
    return code, out.getvalue()


def _numpy_rng(seed: int) -> np.random.Generator:
    # numpy seeds must be non-negative; derive one from any integer seed
    return np.random.default_rng(random.Random(seed).getrandbits(64))


# -- paper-build --------------------------------------------------------------

def _paper_build(seed: int, workdir: Path) -> list[Op]:
    # The published sets are the inputs, so the seed changes nothing here.
    # Their order is fixed too: peak RSS depends on it.
    ops = [_build_op(inst, workdir / f"build-{inst.name}") for inst in PAPER_INSTANCES]
    ops.append(Op("pf-sweep", lambda traced: bounds.pf_identity_sweep(*PF_GRID),
                  _check_pf_sweep))
    return ops


def _build_op(inst: Instance, outdir: Path) -> Op:
    argv = ["build", *inst.flags, "--budget", "0", "--out", str(outdir)]

    def run(traced):
        if traced:  # pipeline order: field, then the cold factor table
            field = galois.field_from_order(inst.q)
            cyclic.factor_x_pow_n_minus_one(field, inst.n)
        return _cli(argv)

    def check(result):
        code, stdout = result
        problems = [] if code == 0 else [f"exit code {code}, expected 0"]
        record = json.loads((outdir / "fhs_set.json").read_text())
        got = (record["n"], record["N"], record["lambda"], record["ell"])
        if got != inst.params:
            problems.append(f"(n, N, lambda, ell) = {got}, paper has {inst.params}")
        lines = stdout.splitlines()
        if f"correlation sweep: exhaustive, max = {inst.params[2]}" not in lines:
            problems.append("correlation not certified exhaustively at the paper's lambda")
        checks = dict(line.split()[1:3] for line in lines if line.startswith("check "))
        if "class_sizes:" not in checks:  # True iff every orbit has size n
            problems.append("orbit sizes were not checked")
        problems += [f"check {name} {value}" for name, value in checks.items()
                     if value != "True"]
        manifest = json.loads((outdir / "manifest.json").read_text())
        return problems, {"params": got, "digests": manifest["outputs"]}

    return Op(f"build {inst.name}", run, check)


def _check_pf_sweep(report):
    problems = [] if report.ok else [f"{len(report.counterexamples)} counterexamples"]
    if report.triples_checked != PF_TRIPLES:
        problems.append(f"{report.triples_checked} triples checked, expected {PF_TRIPLES}")
    return problems, report.triples_checked


# -- paper-verify -------------------------------------------------------------

def load_set(name: str) -> tuple[np.ndarray, tuple[int, int, int, int]]:
    """A stored set as an (N, n) array, with its (n, N, lambda, ell) checked."""
    with gzip.open(DATA / f"{name}.json.gz", "rt") as f:
        record = json.load(f)
    seqs = np.array(record["sequences"], dtype=np.int64)
    params = (record["n"], record["N"], record["lambda"], record["ell"])
    if params != STORED_SETS[name] or seqs.shape != (params[1], params[0]):
        raise ValueError(f"stored set {name} has (n, N, lambda, ell) = {params}")
    return seqs, params


def transform(seqs: np.ndarray, ell: int, rng: np.random.Generator) -> np.ndarray:
    """Rotate each sequence independently, permute the alphabet and shuffle
    the rows.  All three leave every Hamming correlation maximum unchanged."""
    count, n = seqs.shape
    shifts = rng.integers(0, n, count)
    cols = (np.arange(n)[None, :] + shifts[:, None]) % n
    rotated = seqs[np.arange(count)[:, None], cols]
    return rng.permutation(ell)[rotated][rng.permutation(count)]


@dataclass(frozen=True)
class VerifyRecord:
    base: str
    path: Path
    stored_lambda: int
    true_lambda: int


def _paper_verify(seed: int, workdir: Path) -> list[Op]:
    rng = _numpy_rng(seed)
    records = []
    for name in VERIFY_SETS:
        seqs, (n, count, lam, ell) = load_set(name)
        moved = transform(seqs, ell, rng).tolist()
        wrong = lam + int(rng.choice((-1, 1)))  # every stored lambda is >= 1
        for stored in (lam, wrong):
            path = workdir / f"{name}-lambda{stored}.json"
            record = {
                "n": n, "ell": ell, "N": count, "lambda": stored,
                "provenance": {"family": "perfbench", "base": name, "seed": seed},
                "sequences": moved,
            }
            path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
            records.append(VerifyRecord(name, path, stored, lam))
    return [_verify_op(rec) for rec in records]


def _verify_op(rec: VerifyRecord) -> Op:
    argv = ["verify", str(rec.path), "--budget", "0"]
    want_code = 0 if rec.stored_lambda == rec.true_lambda else 2
    want_line = (f"stored lambda = {rec.stored_lambda}; "
                 f"measured (exhaustive) = {rec.true_lambda}")

    def check(result):
        code, stdout = result
        problems = [] if code == want_code else [f"exit code {code}, expected {want_code}"]
        if want_line not in stdout.splitlines():
            problems.append(f"expected {want_line!r}, got {stdout.strip()!r}")
        return problems, [code, stdout]

    return Op(f"verify {rec.base} lambda={rec.stored_lambda}",
              lambda traced: _cli(argv), check)


def _scalar_lambda(seqs: np.ndarray) -> int:
    rows = seqs.tolist()
    n = len(rows[0])
    return max(
        correlation(x, y, t)
        for i, x in enumerate(rows)
        for j, y in enumerate(rows)
        for t in range(n)
        if i != j or t
    )


def selftest(seed: int) -> list[str]:
    """Check on small sets that `transform` keeps lambda and N distinct rows,
    with the scalar `correlation` oracle over all pairs and shifts."""
    rng = _numpy_rng(seed)
    problems = []
    for name in SELFTEST_SETS:
        seqs, (n, count, lam, ell) = load_set(name)
        moved = transform(seqs, ell, rng)
        before, after = _scalar_lambda(seqs), _scalar_lambda(moved)
        if not before == after == lam:
            problems.append(f"{name}: lambda {before} before and {after} after the "
                            f"transform, stored {lam}")
        if len(np.unique(moved, axis=0)) != count:
            problems.append(f"{name}: the transform merged rows")
    return problems


# -- orbit-oracle -------------------------------------------------------------

def _cosets(n: int, q: int) -> list[tuple[int, ...]]:
    seen = [False] * n
    out = []
    for t in range(n):
        members = []
        j = t
        while not seen[j]:
            seen[j] = True
            members.append(j)
            j = j * q % n
        if members:
            out.append(tuple(sorted(members)))
    return out


def oracle_universe() -> list[tuple[int, int, tuple[int, ...]]]:
    """Every (q, n, defining set) of criterion 7 with at most 2^14 codewords:
    the defining set is any union of nonzero cosets."""
    out = []
    for q in ORACLE_FIELDS:
        for n in range(1, ORACLE_MAX_N + 1):
            if math.gcd(n, q) != 1:
                continue
            nonzero = [c for c in _cosets(n, q) if c[0] != 0]
            for r in range(len(nonzero) + 1):
                for combo in itertools.combinations(nonzero, r):
                    members = tuple(sorted(j for c in combo for j in c))
                    if q ** (n - len(members)) <= ORACLE_MAX_CODEWORDS:
                        out.append((q, n, members))
    if len(out) != ORACLE_UNIVERSE_SIZE:
        raise ValueError(f"universe has {len(out)} codes, expected {ORACLE_UNIVERSE_SIZE}")
    return out


def _cost(code):
    q, n, members = code
    return q ** (n - len(members)) * n * n, code


def draw_codes(seed: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """A seeded stratified draw of ORACLE_DRAW codes without replacement.

    One code of every (q, n) pair is always drawn, so each run builds the
    same cold factor tables.  The rest comes one code per stratum of codes
    ranked by enumeration cost, so the total work barely depends on the seed.
    """
    rng = random.Random(seed)
    universe = oracle_universe()
    groups = defaultdict(list)
    for code in universe:
        groups[code[:2]].append(code)
    anchors = {rng.choice(groups[key]) for key in sorted(groups)}
    rest = sorted((c for c in universe if c not in anchors), key=_cost)
    need = ORACLE_DRAW - len(anchors)
    picks = [rng.choice(rest[i * len(rest) // need:(i + 1) * len(rest) // need])
             for i in range(need)]
    return sorted(anchors.union(picks))


def _orbit_oracle(seed: int) -> list[Op]:
    return [_oracle_op(*code) for code in draw_codes(seed)]


def _oracle_op(q: int, n: int, members: tuple[int, ...]) -> Op:
    k = n - len(members)

    def run(traced):
        field = galois.field_from_order(q)
        if traced:  # the cold factor table gets its own span
            cyclic.factor_x_pow_n_minus_one(field, n)
        code = cyclic.build_code(n, field, members)
        predicted = cyclic.has_full_orbits_outside_constants(code)
        _, sizes = cyclic.class_partition(code, exclude="constants")
        return code.dimension, predicted, sizes, cyclic.min_distance_exhaustive(code)

    def check(result):
        dimension, predicted, sizes, d = result
        observed = bool((sizes == n).all())
        problems = []
        if dimension != k:
            problems.append(f"dimension {dimension}, expected {k}")
        if predicted != observed:
            problems.append(f"predicate {predicted} but all orbits full is {observed}")
        if d > n - k + 1:
            problems.append(f"d = {d} exceeds the Singleton bound {n - k + 1}")
        return problems, [predicted, observed, len(sizes), d]

    return Op(f"code q={q} n={n} Z={list(members)}", run, check)
