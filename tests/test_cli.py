import contextlib
import gzip
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from fhsforge import cli, constructions, cyclic, fhs
from fhsforge.cli import main, make_parser
from fhsforge.fhs import CorrelationSurvey, FhsSet, correlation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cosets_text(capsys):
    code, out, _ = run(capsys, "cosets", "--n", "9", "--q", "8")
    assert code == 0
    assert "C_1 = {1, 8}" in out and "C_4 = {4, 5}" in out


def test_cosets_json(capsys):
    code, out, _ = run(capsys, "cosets", "--n", "17", "--q", "16", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["cosets"][0] == [0]
    assert [1, 16] in data["cosets"] and [8, 9] in data["cosets"]


def test_cosets_not_coprime_is_input_error(capsys):
    code, _, err = run(capsys, "cosets", "--n", "5", "--q", "5")
    assert code == 4
    assert "NotCoprime" in err


def test_factor_json(capsys):
    code, out, _ = run(capsys, "factor", "--n", "9", "--q", "8", "--json")
    assert code == 0
    data = json.loads(out)
    degrees = sorted(len(f["coefficients"]) - 1 for f in data["factors"])
    assert degrees == [1, 2, 2, 2, 2]


TEXT_STDOUT = {
    ("factor", "--n", "7", "--q", "2"): """\
x^7 - 1 over GF(2):
  C_0: 1 + x
  C_1: 1 + x + x^3
  C_3: 1 + x^2 + x^3
""",
    ("factor", "--n", "13", "--q", "3"): """\
x^13 - 1 over GF(3):
  C_0: 2 + x
  C_1: 2 + 2*x + x^3
  C_2: 2 + x + x^2 + x^3
  C_4: 2 + x^2 + x^3
  C_7: 2 + 2*x + 2*x^2 + x^3
""",
    ("code", "--n", "8", "--q", "3", "--defining-set", "1,3"): """\
[8, 6] cyclic code over GF(3)
  defining set: [1, 3]
  g(x) = 2 + x + x^2
  h(x) = 1 + x + 2*x^2 + 2*x^4 + 2*x^5 + x^6
  full_orbits_outside_constants: False
  full_orbits_nonzero: False
""",
}


@pytest.mark.parametrize("argv", sorted(TEXT_STDOUT), ids=" ".join)
def test_text_output_is_pinned(capsys, argv):
    # the text forms of factor and code, and the polynomial printer
    assert run(capsys, *argv) == (0, TEXT_STDOUT[argv], "")


def test_code_inspection(capsys):
    code, out, _ = run(capsys, "code", "--n", "9", "--q", "8",
                       "--defining-set", "3,4,5,6", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 5
    assert data["full_orbits_outside_constants"] is True
    assert data["defining_set"] == [3, 4, 5, 6]
    assert data["alpha_minimal_polynomial"] == [1, 2, 1]  # m_1, low degree first


def test_code_cosets_given(capsys):
    code, out, _ = run(capsys, "code", "--n", "9", "--q", "8",
                       "--defining-set", "3,4", "--cosets-given", "--json")
    assert code == 0
    assert json.loads(out)["defining_set"] == [3, 4, 5, 6]


@pytest.mark.parametrize("command", ["code", "mindist"])
@pytest.mark.parametrize("residue", ["100", "-1"])
def test_cosets_given_refuses_a_residue_out_of_range(capsys, command, residue):
    # the residue used to be dropped: 1,100 gave Z = {1, 8}, and -1 the full code
    code, out, err = run(capsys, command, "--n", "9", "--q", "8",
                         f"--defining-set=1,{residue}", "--cosets-given")
    assert code == 4 and out == ""
    assert err == f"error: NotCosetClosed: residue {residue} outside 0..8\n"


def test_mindist(capsys):
    code, out, _ = run(capsys, "mindist", "--n", "9", "--q", "8",
                       "--defining-set", "3,4,5,6")
    assert code == 0
    assert "[9, 5, 5]" in out and "MDS" in out


def test_bounds_report(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "26", "--N", "600",
                       "--ell", "25", "--lambda", "2")
    assert code == 0
    data = json.loads(out)
    assert data["pf1"] == data["pf2"] == 2
    assert data["meets"]["peng_fan"] and data["meets"]["singleton"]


def test_pf_identity_cli(capsys):
    code, out, _ = run(capsys, "pf-identity", "--n-max", "8",
                       "--N-max", "20", "--l-max", "12")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_build_and_verify_round_trip(tmp_path, capsys):
    out_dir = tmp_path / "b5"
    code, out, _ = run(capsys, "build", "--family", "B", "--q", "5",
                       "--out", str(out_dir), "--csv")
    assert code == 0
    assert "verified" in out
    for name in ("fhs_set.json", "fhs_set.csv", "bound_report.json",
                 "family.json", "code.json", "manifest.json"):
        assert (out_dir / name).exists()
    report = json.loads((out_dir / "bound_report.json").read_text())
    assert report["lambda"] == 2
    family = json.loads((out_dir / "family.json").read_text())
    assert family["claims"]["lambda_match"] == {"claimed": "2", "proved": "2"}
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["outputs"]["fhs_set.json"]

    code, out, _ = run(capsys, "verify", str(out_dir / "fhs_set.json"))
    assert code == 0
    assert "measured (exhaustive) = 2" in out


def test_fhs_set_json_has_one_sequence_per_line(tmp_path, capsys):
    out_dir = tmp_path / "b5"
    assert run(capsys, "build", "--family", "B", "--q", "5",
               "--out", str(out_dir))[0] == 0
    path = out_dir / "fhs_set.json"
    text = path.read_text()
    record = json.loads(text)
    lines = text.splitlines()
    assert lines[-record["N"] - 3] == '  "sequences": ['
    assert lines[-2:] == ["  ]", "}"]
    rows = lines[-record["N"] - 2:-2]
    assert [json.loads(row.rstrip(",")) for row in rows] == record["sequences"]
    # the indented layout that earlier builds wrote verifies the same way
    indented = tmp_path / "indented.json"
    indented.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    compact, old = (run(capsys, "verify", str(p)) for p in (path, indented))
    assert compact == old and compact[0] == 0


def per_row_dump_set(record):
    """Reference encoder: one json.dumps per sequence, joined line by line."""
    rest = {key: value for key, value in record.items() if key != "sequences"}
    head = json.dumps(rest, indent=2, sort_keys=True)[:-2]
    rows = ",\n".join(
        "    " + json.dumps(row, separators=(",", ":")) for row in record["sequences"]
    )
    return f'{head},\n  "sequences": [\n{rows}\n  ]\n}}\n'


# the symbols on each side of a change in digit count, up to the largest uint32
EDGE_SYMBOLS = (0, 9, 10, 99, 100, 10**9 - 1, 10**9, 2**32 - 1)


def drawn_sets(seed):
    """FHS sets with N = 1 or n = 1 among them, some with an all-zero row,
    and symbols drawn from EDGE_SYMBOLS as often as at random; each set's
    rows are given shuffled, so the writers must follow its order."""
    rng = random.Random(seed)
    seen = set()
    for _ in range(300):
        count = rng.choice([1, rng.randrange(1, 30)])
        n = rng.choice([1, rng.randrange(1, 6)])
        ell = rng.choice([2, 10, 11, 101, 257, 10**9 + 1, 2**32])
        edges = [s for s in EDGE_SYMBOLS if s < ell]

        def symbol():
            return rng.choice(edges) if rng.random() < 0.5 else rng.randrange(ell)

        rows = {tuple(symbol() for _ in range(n)) for _ in range(count)}
        if rng.random() < 0.3:
            rows.add((0,) * n)
        rows = list(rows)
        rng.shuffle(rows)
        seen.update(s for row in rows for s in row if s in EDGE_SYMBOLS)
        if len(rows) == 1:
            seen.add("N = 1")
        if n == 1:
            seen.add("n = 1")
        if (0,) * n in rows:
            seen.add("zero row")
        yield FhsSet(rows, ell, {"family": "B", "q": ell}, rng.randrange(n))
    assert seen == {*EDGE_SYMBOLS, "N = 1", "n = 1", "zero row"}


def test_dump_set_matches_per_row_encoder():
    for fset in drawn_sets(41):
        text = fset.to_json_bytes()
        record = json.loads(text)
        assert text == per_row_dump_set(record).encode()
        assert record == {"n": fset.n, "ell": fset.alphabet_size, "N": fset.size,
                          "lambda": fset.max_correlation, "provenance": fset.provenance,
                          "sequences": fset.seqs[fset.order].tolist()}


def test_dump_csv_matches_per_row_encoder():
    for fset in drawn_sets(43):
        rows = json.loads(fset.to_json_bytes())["sequences"]
        assert fset.to_csv_bytes() == "".join(
            ",".join(map(str, row)) + "\n" for row in rows
        ).encode()


def test_csv_rows_follow_the_json_order(tmp_path, capsys):
    out_dir = tmp_path / "b5"
    assert run(capsys, "build", "--family", "B", "--q", "5", "--csv",
               "--out", str(out_dir))[0] == 0
    record = json.loads((out_dir / "fhs_set.json").read_text())
    lines = (out_dir / "fhs_set.csv").read_text().splitlines()
    rows = [[int(s) for s in line.split(",")] for line in lines]
    assert rows == record["sequences"] == sorted(record["sequences"])


@pytest.mark.parametrize("name", ["A8k1", "A8k2", "B5", "B25", "C512"])
def test_verify_reads_stored_benchmark_sets(tmp_path, capsys, name):
    # compact records of sets built under the earlier root-of-unity
    # convention: they are still optimal sets, and verify certifies them,
    # in that layout, in the benchmark's indented one and in build's one
    # row per line, with the same lambda and witness
    stored = Path(__file__).resolve().parents[1] / "perfbench" / "data" / f"{name}.json.gz"
    compact = gzip.decompress(stored.read_bytes())
    record = json.loads(compact)
    layouts = {
        "compact": compact,
        "indented": (json.dumps(record, indent=2, sort_keys=True) + "\n").encode(),
        "build": FhsSet.from_json_dict(record).to_json_bytes(),
    }
    lam = record["lambda"]
    outs = []
    for layout, text in layouts.items():
        path = tmp_path / f"{name}-{layout}.json"
        path.write_bytes(text)
        code, out, err = run(capsys, "verify", str(path))
        assert (code, err) == (0, ""), layout
        assert out.splitlines()[0] == f"stored lambda = {lam}; measured (exhaustive) = {lam}"
        assert out.splitlines()[1].startswith("witness: ")
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


# SHA-256 of each paper build's outputs at --csv --budget 0, and of
# pf-identity's stdout: a change that keeps the outputs byte-identical keeps
# these.
PAPER_BUILDS = {
    "A8k1": (["--family", "A", "--m", "3", "--k", "1"], {
        "family.json": "8cb1772655e2f7b727e0f6cec07647d7d58d78b3d64bfe355e3849b22f00f944",
        "code.json": "d16f9f58a7e0537468b364db52a893fa9ce721a342aa3b4712da16c4075a4449",
        "fhs_set.json": "dc45327f0f5d20903c72aef84f69bc033490e0e7a87eca4d09549f3a142195fe",
        "fhs_set.csv": "c8702990366d0b5221c2f6b4165e00e8ed0cebb9cb2a19c0b0e6e773f867d16f",
        "bound_report.json": "74c2c5dd76850126a2697d5c22651e64f39cead16603cfb598555e624a72ab17",
    }),
    "A8k2": (["--family", "A", "--m", "3", "--k", "2"], {
        "family.json": "ae4de2878081fb1a658ffb7d3c5f1aefa16972bf74778806dcedd1cf5884ea69",
        "code.json": "32bccf40969a8c4637db1561306289c8d672c15bf5a93976316c089ee79f6fe9",
        "fhs_set.json": "5d1ff7273d5e60aaf727894f7ecbcfc3b12e21c803ecfe29228ca0f518acdc5b",
        "fhs_set.csv": "b54342cc0a0e9d1e518ce7de69b9892abc391ac70be923c655df749e1fccc55c",
        "bound_report.json": "f1d13478302f85e9fc128b6077f46b82da6c7bdbe68baf33f4c9e2fff9f953df",
    }),
    "B5": (["--family", "B", "--q", "5"], {
        "family.json": "4851e687a2ab3c76e39fb67615335cb821fa6723469b54ad4eaa2c42b7be09a0",
        "code.json": "97a31f294152e57eda8811340e7de33d83bfa7fcebea264cc9cdeeae38ab07dc",
        "fhs_set.json": "fddbbffa89c935bf1c9ce5b449a411bef7c8d8302a4114aef97e0722771fd602",
        "fhs_set.csv": "612480ffc6f2d9318715e3262482c11cc6c349b901bc8553a8ef9cbda809fac7",
        "bound_report.json": "00fe9a5b214dcfcd516ce487a48e8acc6efcac1d2521781aae573924a48c1806",
    }),
    "B25": (["--family", "B", "--q", "25"], {
        "family.json": "db7928ec34508e9f7aba4b5543f74980893f153a4cb8924e6b8aed63d03df8bc",
        "code.json": "717a0940c42aa61d4ad9bf2b8acdef90755f52fbb8cdf4f6cbf357cfcaff3299",
        "fhs_set.json": "2979ede6adad8266020f0fcb388011e342a9a865a86a8c53dd3cc4fb560490ef",
        "fhs_set.csv": "28d5c2cf5dadd357f67021242a41dd1c131e346e2be96937b91c44296b6c3c3b",
        "bound_report.json": "a5ab8c9f109c47e14e47c761afc63afbb2103741455ff70939cdfb6bb06d0a40",
    }),
    "C32": (["--family", "C", "--q", "32", "--n", "11", "--k", "0"], {
        "family.json": "7ca34dbe9e3435de4da7f592e226d310822997dd09d559d685011dfbc0f3deab",
        "code.json": "956dd25260a17ed6153a99dddf09c63691e2f30307ad31dc5e760881ada4b6ed",
        "fhs_set.json": "0715c2e4c68a9cb97dfb1b80d58308bf318e3036fd4b6cd286767077cc9cecbe",
        "fhs_set.csv": "f597ffce88ff7d177d0242bfabe131c6a368a277bad88d558f8ec1baa20afadd",
        "bound_report.json": "fb681ad3d6700bc2bb1486ff9da87843eed186502a05d13707cb79eca30c5f41",
    }),
    "C512": (["--family", "C", "--q", "512", "--n", "27", "--k", "0"], {
        "family.json": "0d3f6d5b3cd04a71cc59acdc6536f4e213e237cdebc99f6f7695a6da88d08ca7",
        "code.json": "8b216d393b0a1b9a910f54457c636883c3f2c6209c0428e89994768e0154c82e",
        "fhs_set.json": "da996c2b44fbf10bcb28bdd8c33f090eeebdd4298ca10c36d98e094a4e8644fa",
        "fhs_set.csv": "7a52c8e68e1b963cfd27b2751c23cb928573c6de6eea55f0c003c2b21996a742",
        "bound_report.json": "156e31ea176041f8b34a0761f43457e4cd2ac32afb6b0228ebf7559cb011c371",
    }),
}
# `verify` stdout on each paper build's fhs_set.json: the certificate's
# value and witness.
PAPER_VERIFY_STDOUT = {
    "A8k1": (2, "sequences[0], sequences[7], 8"),
    "A8k2": (4, "sequences[0], sequences[7], 8"),
    "B5": (2, "sequences[0], sequences[0], 1"),
    "B25": (2, "sequences[0], sequences[0], 1"),
    "C32": (1, "sequences[0], sequences[0], 9"),
    "C512": (1, "sequences[0], sequences[0], 25"),
}
PF_IDENTITY_STDOUT = {
    (): "86fa930270f345df90ec75b2e4ad8e1549ed33a60002dc96f8c855535aadd550",
    ("--n-max", "80", "--N-max", "400", "--l-max", "120"):
        "5123bae1c740e7e1184845ca4158d65ceb52555c11f5fb2dc92e44661aaeb36b",
}


def check_lines(family):
    """The `check` lines a build prints for its family.json's claims: each
    claim, by name, proved as claimed (True or False) or not proved (None)."""
    return [f"check {name}: {None if c['proved'] is None else c['proved'] == c['claimed']}"
            for name, c in sorted(family["claims"].items())]


@pytest.mark.parametrize("name", sorted(PAPER_BUILDS))
def test_paper_build_outputs_are_pinned(tmp_path, capsys, name):
    flags, digests = PAPER_BUILDS[name]
    code, out, _ = run(capsys, "build", *flags, "--csv", "--budget", "0",
                       "--out", str(tmp_path))
    assert code == 0
    # stdout's verdicts are those of the written claims, every one proved
    family = json.loads((tmp_path / "family.json").read_text())
    checks = [line for line in out.splitlines() if line.startswith("check ")]
    assert checks == check_lines(family)
    assert checks and all(line.endswith(": True") for line in checks)
    for file, digest in digests.items():
        assert hashlib.sha256((tmp_path / file).read_bytes()).hexdigest() == digest, file
    # the manifest names the digest of each file's exact bytes
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["outputs"] == digests
    # the build's bound report is `bounds` stdout for the set's parameters
    record = json.loads((tmp_path / "fhs_set.json").read_text())
    params = [arg for key in ("n", "N", "ell", "lambda")
              for arg in (f"--{key}", str(record[key]))]
    assert run(capsys, "bounds", *params) == (
        0, (tmp_path / "bound_report.json").read_text(), "")
    lam, probe = PAPER_VERIFY_STDOUT[name]
    assert run(capsys, "verify", str(tmp_path / "fhs_set.json")) == (0, (
        f"stored lambda = {lam}; measured (exhaustive) = {lam}\n"
        f"witness: correlation({probe}) = {lam}\n"
    ), "")


@pytest.mark.parametrize("grid", sorted(PF_IDENTITY_STDOUT), ids=["default", "benchmark"])
def test_pf_identity_stdout_is_pinned(capsys, grid):
    code, out, _ = run(capsys, "pf-identity", *grid)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PF_IDENTITY_STDOUT[grid]


@pytest.mark.parametrize("grid", [
    ["--n-max", "1073741824", "--N-max", "1", "--l-max", "1"],
    ["--n-max", "1", "--N-max", "1000000", "--l-max", "1000"],
    ["--n-max", "1", "--N-max", "1073741824", "--l-max", "1"],
], ids=["n-at-2^30", "cells", "cells-at-2^30"])
def test_runaway_pf_identity_is_refused_at_once(capsys, grid):
    # each passes the 2^30 check on n_max * N_max, and the cell cap refuses
    # it; the second ran for over a minute before there was a cap
    start = time.monotonic()
    code, out, err = run(capsys, "pf-identity", *grid)
    assert time.monotonic() - start < 1.0
    assert code == 3 and out == ""
    assert "BoundTooLarge" in err and "Traceback" not in err


def test_build_outputs_are_deterministic(tmp_path, capsys):
    dirs = [tmp_path / "one", tmp_path / "two"]
    for d in dirs:
        assert run(capsys, "build", "--family", "C", "--q", "8", "--n", "9",
                   "--k", "0", "--out", str(d))[0] == 0
    for name in ("fhs_set.json", "bound_report.json", "family.json", "code.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_verify_detects_corruption(tmp_path, capsys):
    out_dir = tmp_path / "b5"
    assert run(capsys, "build", "--family", "B", "--q", "5",
               "--out", str(out_dir))[0] == 0
    path = out_dir / "fhs_set.json"
    data = json.loads(path.read_text())
    # duplicate an existing sequence: distinctness violation -> parse error path
    seq = data["sequences"][0]
    row = list(data["sequences"][1])
    data["sequences"][1] = seq
    path.write_text(json.dumps(data))
    assert run(capsys, "verify", str(path))[0] == 4

    # change one symbol instead: lambda must move off the stored value
    data["sequences"][1] = row
    data["sequences"][1][0] = (row[0] + 1) % 5
    if data["sequences"][1] in [seq] + data["sequences"][2:]:
        data["sequences"][1][1] = (row[1] + 1) % 5
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 2


def test_verify_budget_and_sampled(tmp_path, capsys):
    out_dir = tmp_path / "b5"
    assert run(capsys, "build", "--family", "B", "--q", "5",
               "--out", str(out_dir))[0] == 0
    path = str(out_dir / "fhs_set.json")
    code, out, _ = run(capsys, "verify", path, "--budget", "10")
    assert code == 3
    assert "exceed budget" in out


def test_build_params_only_exit_code(tmp_path, capsys):
    out_dir = tmp_path / "a8"
    code, out, _ = run(capsys, "build", "--family", "A", "--m", "4", "--k", "8",
                       "--cap", "1", "--out", str(out_dir))
    assert code == 3
    assert not (out_dir / "fhs_set.json").exists()
    family = json.loads((out_dir / "family.json").read_text())
    assert family["claims"]["class_count"] == {
        "claimed": "17361641481138401520", "proved": None}
    report = json.loads((out_dir / "bound_report.json").read_text())
    assert report["meets"]["singleton"] is True


def test_build_removes_stale_outputs(tmp_path, capsys):
    # each build leaves exactly its manifest's outputs: B5's CSV, then
    # A8k1's set, used to stay beside a later build's manifest
    builds = [
        (["--family", "B", "--q", "5", "--csv"], 0),
        (["--family", "A", "--m", "3", "--k", "1"], 0),
        (["--family", "A", "--m", "4", "--k", "8", "--cap", "1"], 3),
        (["--family", "Ding", "--q", "2", "--m", "4"], 0),
    ]
    for argv, exit_code in builds:
        assert run(capsys, "build", *argv, "--out", str(tmp_path))[0] == exit_code
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        names = {path.name for path in tmp_path.iterdir()}
        assert names == {*manifest["outputs"], "manifest.json"}, argv


def test_build_sampled_exit_code(tmp_path, capsys):
    # over budget: N * n = 120 rotations at L = 1
    out_dir = tmp_path / "b5"
    code, out, _ = run(capsys, "build", "--family", "B", "--q", "5",
                       "--budget", "10", "--out", str(out_dir))
    assert code == 3
    assert "correlation not verified (over budget" in out
    family = json.loads((out_dir / "family.json").read_text())
    assert family["claims"]["lambda_match"] == {"claimed": "2", "proved": None}


def test_build_c32_k1_exact_at_default_budget(tmp_path, capsys):
    out_dir = tmp_path / "c1"
    code, out, _ = run(capsys, "build", "--family", "C", "--q", "32", "--n", "11",
                       "--k", "1", "--out", str(out_dir))
    assert code == 0
    assert "correlation sweep: exhaustive, max = 3" in out.splitlines()
    code, out, _ = run(capsys, "verify", str(out_dir / "fhs_set.json"))
    assert code == 0
    assert "stored lambda = 3; measured (exhaustive) = 3" in out.splitlines()
    # the tests at L = 1, 2 and 4 count 1 + 5 + 30 rotation classes of
    # N * n = 1,048,575 rotations each, 37,748,700 in all
    code, out, _ = run(capsys, "verify", str(out_dir / "fhs_set.json"),
                       "--budget", "37748700")
    assert code == 0
    code, out, _ = run(capsys, "verify", str(out_dir / "fhs_set.json"),
                       "--budget", "37748699")
    assert code == 3 and "L = 4 key 37748700 rotations" in out


def test_build_ding(tmp_path, capsys):
    code, out, _ = run(capsys, "build", "--family", "Ding", "--q", "2", "--m", "4",
                       "--out", str(tmp_path / "d"))
    assert code == 0
    assert "predicate_matches_primality: True" in out


def test_build_ding_refuses_m_below_2(tmp_path, capsys):
    # m = 1 gives n = 1, where the residue test holds vacuously and n is not
    # prime: refused before any work, as family A refuses it
    code, out, err = run(capsys, "build", "--family", "Ding", "--q", "2", "--m", "1",
                         "--out", str(tmp_path / "d"))
    assert (code, out, err) == (4, "", "error: KOutOfRange: need m > 1, got 1\n")
    assert not (tmp_path / "d").exists()


def test_build_looks_up_its_builder_when_it_runs(tmp_path, capsys, monkeypatch):
    # a wrapper bound to the module name after import, as a tracer binds
    # one, is the builder that runs
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return constructions.family_b(*args, **kwargs)

    monkeypatch.setattr(cli, "family_b", spy)
    code, _, _ = run(capsys, "build", "--family", "B", "--q", "5", "--out", str(tmp_path))
    assert code == 0 and calls == [(5,)]


@pytest.mark.parametrize("argv, exit_code, pinned", [
    (["--family", "B", "--q", "5", "--budget", "10"], 3, {
        "lambda_match": {"claimed": "2", "proved": None}}),
    (["--family", "A", "--m", "4", "--k", "8", "--cap", "1"], 3, {
        "class_count": {"claimed": "17361641481138401520", "proved": None},
        "class_sizes": {"claimed": True, "proved": None},
        "lambda_match": {"claimed": "16", "proved": None}}),
    # n = 15 is not prime, and has a short orbit; n = 13 is, and has none
    (["--family", "Ding", "--q", "2", "--m", "4"], 0, {
        "predicate_matches_primality": {"claimed": False, "proved": False}}),
    (["--family", "Ding", "--q", "3", "--m", "3"], 0, {
        "predicate_matches_primality": {"claimed": True, "proved": True}}),
], ids=["B5-over-budget", "A-past-the-cap", "Ding-n15", "Ding-n13"])
def test_build_claims_record_what_was_proved(tmp_path, capsys, argv, exit_code, pinned):
    # family.json holds proved: null exactly for the claims the caps
    # stopped, and stdout prints their verdict as None
    code, out, _ = run(capsys, "build", *argv, "--out", str(tmp_path))
    assert code == exit_code
    family = json.loads((tmp_path / "family.json").read_text())
    claims = family["claims"]
    assert {name: claims[name] for name in pinned} == pinned
    unproved = {name for name, c in claims.items() if c["proved"] is None}
    assert unproved == {name for name, c in pinned.items() if c["proved"] is None}
    checks = [line for line in out.splitlines() if line.startswith("check ")]
    assert checks == check_lines(family)
    assert {line[6:-6] for line in checks if line.endswith(": None")} == unproved
    assert not any(line.startswith("observed ") for line in out.splitlines())
    # the sweep's line is printed only for a proved lambda_match
    if claims.get("lambda_match", {"proved": None})["proved"] is None:
        assert not any(line.startswith("correlation sweep:") for line in out.splitlines())


@pytest.mark.parametrize("patch, argv, lines", [
    # the certificate measures 3 where the paper claims 2
    ("max_nontrivial", ["--family", "B", "--q", "5"],
     ["check lambda_match: False", "correlation sweep: exhaustive, max = 3"]),
    # a refuted claim outranks the unproved ones past the cap
    ("_full_orbits", ["--family", "B", "--q", "5", "--cap", "1"],
     ["check class_count: None", "check orbit_predicate: False"]),
    # a partition with one orbit of size 1: no set is made of a short orbit
    ("class_partition", ["--family", "B", "--q", "5"],
     ["check class_sizes: False", "check lambda_match: None"]),
], ids=["lambda", "predicate-past-the-cap", "short-orbit"])
def test_build_claim_mismatch_exits_2(tmp_path, capsys, monkeypatch, patch, argv, lines):
    fakes = {"max_nontrivial": lambda fset, budget: CorrelationSurvey(3, (0, 0, 1), 0),
             "_full_orbits": lambda n, nonzeros: False,
             "class_partition": lambda code, cap: (
                 np.zeros((1, code.n), dtype=np.uint32), np.ones(1, dtype=np.intp))}
    monkeypatch.setattr(constructions, patch, fakes[patch])
    code, out, err = run(capsys, "build", *argv, "--out", str(tmp_path))
    assert code == 2 and err == ""
    got = out.splitlines()
    assert set(lines) <= set(got) and got[-1] == "CLAIM MISMATCH"
    family = json.loads((tmp_path / "family.json").read_text())
    assert [line for line in got if line.startswith("check ")] == check_lines(family)
    assert (tmp_path / "fhs_set.json").exists() == (patch == "max_nontrivial")


def test_build_input_errors(tmp_path, capsys):
    assert run(capsys, "build", "--family", "B", "--q", "4",
               "--out", str(tmp_path))[0] == 4
    # a missing flag is named before any work, and nothing is written
    for argv, message in [
        (["--family", "A", "--q", "8"], "family A needs --m and --k"),
        (["--family", "A", "--m", "3"], "family A needs --m and --k"),
        (["--family", "B", "--m", "3"], "family B needs --q"),
        (["--family", "C", "--q", "32", "--n", "11"], "family C needs --q, --n and --k"),
        (["--family", "Ding", "--q", "2"], "family Ding needs --q and --m"),
    ]:
        code, out, err = run(capsys, "build", *argv, "--out", str(tmp_path / "o"))
        assert (code, out, err) == (4, "", f"error: {message}\n"), argv
        assert not (tmp_path / "o").exists()


def test_enumeration_cap_env(tmp_path, capsys, monkeypatch):
    # the cap is set by --cap alone: the environment variable is ignored
    monkeypatch.setenv("FHSFORGE_CAP", "10")
    code, out, _ = run(capsys, "build", "--family", "B", "--q", "5",
                       "--out", str(tmp_path / "capped"))
    assert code == 0
    assert "verified" in out.splitlines()


def test_readme_cli_block_parses():
    # every command the README shows is one the parser accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = [line.split("#")[0] for line in block.splitlines()
             if line.startswith("fhsforge ")]
    assert lines
    parser = make_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func), line


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    # main's parser is built once per process; across subcommands, a usage
    # error and --version, each call gives what a fresh parser gives
    out = tmp_path / "b5"
    calls = [
        ["cosets", "--n", "9", "--q", "8"],
        ["build", "--family", "B", "--q", "5", "--out", str(out)],
        ["cosets", "--n", "9"],  # --q missing
        ["verify", str(out / "fhs_set.json")],
        ["--version"],
        ["bounds", "--n", "6", "--N", "20", "--ell", "5", "--lambda", "2"],
        ["verify", str(out / "fhs_set.json"), "--budget", "-1"],
        ["factor", "--n", "9", "--q", "8", "--json"],
        ["cosets", "--n", "17", "--q", "16", "--json"],
    ]

    def outcomes():
        got = []
        for argv in calls:
            got.append((main(argv), *capsys.readouterr()))
        return got

    cached = outcomes()
    assert make_parser() is make_parser()
    monkeypatch.setattr(cli, "make_parser", make_parser.__wrapped__)
    assert outcomes() == cached
    assert [code for code, _, _ in cached] == [0, 0, 4, 0, 0, 0, 4, 0, 0]


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["build", "--help"]],
                         ids=" ".join)
def test_help_and_version_return_zero(capsys, argv):
    # main returns their status, as on every other path, and prints what
    # the console prints, which exits 0
    code, out, err = run(capsys, *argv)
    assert code == 0 and out and err == ""
    proc = subprocess.run([sys.executable, "-m", "fhsforge", *argv],
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fhsforge", "cosets", "--n", "9", "--q", "8"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "C_3 = {3, 6}" in proc.stdout


def test_cli_does_not_import_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, fhsforge.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"


def test_build_and_verify_do_not_import_numpy_ma():
    # numpy.ma costs about 14 ms to import; np.unique imported it once
    script = (
        "import sys, tempfile\n"
        "from fhsforge.cli import main\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    assert main(['build', '--family', 'B', '--q', '5', '--out', out]) == 0\n"
        "    assert main(['verify', out + '/fhs_set.json']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.fixture(scope="module")
def b5_record(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("b5")
    assert main(["build", "--family", "B", "--q", "5", "--out", str(out_dir)]) == 0
    return json.loads((out_dir / "fhs_set.json").read_text())


@pytest.mark.parametrize("symbol", [1.7, -1, True, "1"],
                         ids=["float", "negative", "bool", "string"])
def test_verify_rejects_non_symbol(tmp_path, capsys, b5_record, symbol):
    # at a symbol that is 1, each of 1.7, True and "1" used to be read as 1
    data = json.loads(json.dumps(b5_record))
    row = next(r for r in data["sequences"] if 1 in r)
    row[row.index(1)] = symbol
    path = tmp_path / "fhs_set.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 4
    assert "measured" not in out and "error:" in err


@pytest.mark.parametrize("content", [
    b"\xff\xfe\x00",
    b"[" * 100000,
    b"1" * 5000,
], ids=["not-utf8", "deep-nesting", "past-int-digit-limit"])
def test_verify_unreadable_record_is_input_error(tmp_path, capsys, content):
    # each used to exit 1 with a traceback from read_text or json.loads
    path = tmp_path / "fhs_set.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 4 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("ell, shown", [(2.5, "2.5"), (True, "True"), ("3", "'3'"),
                                       (None, "None")],
                         ids=["float", "bool", "string", "null"])
def test_verify_rejects_a_non_integer_ell(tmp_path, capsys, b5_record, ell, shown):
    # the set refuses ell, and verify reports its message as an input error
    path = tmp_path / "fhs_set.json"
    path.write_text(json.dumps(dict(b5_record, ell=ell)))
    assert run(capsys, "verify", str(path)) == (
        4, "", f"error: ell must be an integer, got {shown}\n")


def test_verify_refuses_a_record_without_lambda(tmp_path, capsys, b5_record):
    path = tmp_path / "fhs_set.json"
    path.write_text(json.dumps(dict(b5_record, **{"lambda": None})))
    assert run(capsys, "verify", str(path)) == (
        4, "", "error: stored record has no lambda to verify against\n")


def test_bad_residue_list_is_input_error(capsys):
    assert run(capsys, "code", "--n", "7", "--q", "2", "--defining-set", "x") == (
        4, "", "error: bad residue list 'x'\n")


def test_verify_rejects_fractional_lambda(tmp_path, capsys, b5_record):
    data = dict(b5_record, **{"lambda": 2.5})
    path = tmp_path / "fhs_set.json"
    path.write_text(json.dumps(data))
    assert run(capsys, "verify", str(path))[0] == 4


def test_negative_budget_is_input_error(tmp_path, capsys, b5_record):
    path = tmp_path / "fhs_set.json"
    path.write_text(json.dumps(b5_record))
    code, _, err = run(capsys, "verify", str(path), "--budget", "-1")
    assert code == 4 and "--budget" in err
    code, _, err = run(capsys, "build", "--family", "B", "--q", "5", "--budget", "-1",
                       "--out", str(tmp_path / "b"))
    assert code == 4 and "--budget" in err
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("argv", [
    ["verify", "F", "--sampled"],
    ["build", "--family", "B", "--q", "5", "--samples", "5", "--seed", "1"],
    ["pf-identity", "--threads", "2"],
    ["no-such-command"],
    ["verify", "F", "--budget", "abc"],
    ["build", "--family", "A", "--m", "4", "--k", "8", "--params-only"],
    ["mindist", "--n", "9", "--q", "8", "--defining-set", "3,4,5,6", "--json"],
], ids=["sampled", "samples-seed", "threads", "subcommand", "budget", "params-only",
        "mindist-json"])
def test_usage_error_is_input_error(capsys, argv):
    # exit 2 would read as a claim mismatch
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert "error:" in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["build", "--family", "A", "--m", "128", "--k", "1", "--cap", "1"],
    ["build", "--family", "B", "--q", "2305843009213693951", "--cap", "1"],
    ["build", "--family", "C", "--q", "2305843009213693951", "--n", "3", "--k", "0",
     "--cap", "1"],
    ["factor", "--n", "3", "--q", "2305843009213693951"],
    ["build", "--family", "A", "--m", "100000000000000", "--k", "1"],
], ids=["family-A", "family-B", "family-C", "factor", "family-A-m-1e14"])
def test_field_cap_before_factoring(tmp_path, capsys, argv):
    # each of these used to trial-divide q (or 2^m + 1) without end, and
    # 1 << 10^14 ran out of memory
    if argv[0] == "build":
        argv = [*argv, "--out", str(tmp_path)]
    start = time.monotonic()
    code, _, err = run(capsys, *argv)
    assert time.monotonic() - start < 1.0
    assert code == 4
    assert "FieldTooLarge" in err and "Traceback" not in err


def test_build_out_is_a_file_is_input_error(tmp_path, capsys):
    # used to escape main as FileExistsError, exit 1 with a traceback
    path = tmp_path / "taken"
    path.write_text("")
    code, _, err = run(capsys, "build", "--family", "B", "--q", "3",
                       "--out", str(path))
    assert code == 4
    assert "error:" in err and "Traceback" not in err


def test_cosets_nonpositive_length_is_input_error(capsys):
    code, _, err = run(capsys, "cosets", "--n", "0", "--q", "2")
    assert code == 4
    assert "NonPositiveLength" in err


@pytest.mark.parametrize("argv", [
    ["factor", "--n", "-1", "--q", "2"],
    ["factor", "--n", "-3", "--q", "2"],
    ["code", "--n", "-1", "--q", "2", "--defining-set="],
    ["mindist", "--n", "-3", "--q", "2", "--defining-set="],
], ids=["factor-1", "factor-3", "code-1", "mindist-3"])
def test_negative_length_is_input_error(capsys, argv):
    # ord_n(q) has no value for n < 1; computing it must not be tried
    code, _, err = run(capsys, *argv)
    assert code == 4
    assert "NonPositiveLength" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["build", "--family", "Ding", "--q", "8", "--m", "9", "--out", "out"],
    ["factor", "--n", "19173961", "--q", "8"],
    ["factor", "--n", "131", "--q", "2"],
    ["code", "--n", "131", "--q", "2", "--defining-set="],
    ["cosets", "--n", "1000000000001", "--q", "2"],
    ["code", "--n", "1000000000001", "--q", "2", "--defining-set", "1",
     "--cosets-given"],
    ["mindist", "--n", "1000000000001", "--q", "2", "--defining-set", "1",
     "--cosets-given"],
    ["build", "--family", "Ding", "--q", "2", "--m", "100000", "--out", "out"],
], ids=["ding-8-9", "factor-length", "factor-degree", "code-degree", "cosets-length",
        "code-cosets-given", "mindist-cosets-given", "ding-2-100000"])
def test_oversized_factor_table_is_refused_at_once(capsys, tmp_path, monkeypatch, argv):
    # n = 19,173,961 is past the length cap; ord_131(2) = 130 past the degree
    # cap; the cosets mod 10^12 + 1 would take 8 TB; (2^100000 - 1)/(2 - 1)
    # took minutes to form
    monkeypatch.chdir(tmp_path)
    start = time.monotonic()
    code, _, err = run(capsys, *argv)
    assert time.monotonic() - start < 1.0
    assert code == 3
    assert "FactorTableTooLarge" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["mindist", "--n", "35", "--q", "2", "--defining-set", "0",
     "--cap", "100000000000"],
    ["build", "--family", "B", "--q", "1331", "--cap", "4294967296", "--out", "out"],
], ids=["mindist-2^34", "build-b-1331"])
def test_enumeration_past_memory_is_refused_at_once(capsys, tmp_path, monkeypatch, argv):
    # both codes fit their --cap, but 2^34 and 1331^3 window keys need far
    # more than the 8 GiB of physical memory pinned here
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cyclic, "_physical_memory", lambda: 8 << 30)
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 1.0
    assert code == 4, out
    assert "EnumerationTooLarge" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


MINDIST_98 = ["mindist", "--n", "9", "--q", "8", "--defining-set", "3,4,5,6"]
BUILD_B5 = ["build", "--family", "B", "--q", "5"]


@pytest.mark.parametrize("argv", [
    MINDIST_98 + ["--cap", "0"],
    MINDIST_98 + ["--cap", "-1"],
    BUILD_B5 + ["--cap", "0"],
    BUILD_B5 + ["--cap", "-1"],
], ids=["mindist-cap-0", "mindist-cap-neg", "build-cap-0", "build-cap-neg"])
def test_cap_below_one_is_input_error(tmp_path, capsys, argv):
    # neither 0 nor a negative cap means "the default" or "no codewords"
    out_dir = tmp_path / "out"
    if argv[0] == "build":
        argv = argv + ["--out", str(out_dir)]
    code, out, err = run(capsys, *argv)
    assert code == 4, out
    assert "enumeration cap" in err and "Traceback" not in err
    assert not out_dir.exists()


def test_verify_prints_witness(tmp_path, capsys, b5_record):
    path = tmp_path / "fhs_set.json"
    path.write_text(json.dumps(b5_record))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "stored lambda = 2; measured (exhaustive) = 2"
    match = re.fullmatch(
        r"witness: correlation\(sequences\[(\d+)\], sequences\[(\d+)\], (\d+)\) = 2",
        lines[1])
    i, j, t = map(int, match.groups())
    seqs = b5_record["sequences"]
    assert (i, t) != (j, 0) and correlation(seqs[i], seqs[j], t) == 2


def check_wide_verify(rows, lam: int, path) -> str:
    """`verify` through the CLI on `rows` * 4096 + 7 over ell = 2^21, a set
    with the rows' lambda whose leaf keys span past max(4*N*n, 2^20) from
    L = 2 on, or from L = 1 for C512's rows, so the walk re-ranks them
    before the bitmap and bincount.  The record is written by
    `to_json_bytes` to `path`; verify must measure `lam` and print a
    nontrivial witness that `correlation()` confirms.  Returns stdout."""
    wide = np.asarray(rows, dtype=np.int64) * 4096 + 7
    Path(path).write_bytes(FhsSet(wide, 2**21, None, lam).to_json_bytes())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", str(path)])
    lines = out.getvalue().splitlines()
    assert code == 0, lines
    assert lines[0] == f"stored lambda = {lam}; measured (exhaustive) = {lam}"
    match = re.fullmatch(
        rf"witness: correlation\(sequences\[(\d+)\], sequences\[(\d+)\], (\d+)\) = {lam}",
        lines[1])
    i, j, t = map(int, match.groups())
    seqs = FhsSet.from_json_dict(Path(path).read_bytes()).seqs.tolist()
    assert (i, t) != (j, 0) and correlation(seqs[i], seqs[j], t) == lam
    return out.getvalue()


def test_wide_alphabet_verify_reranks(tmp_path, monkeypatch):
    # B5's rows: symbols up to 16,391, so the keys from L = 2 on pass 2^20;
    # CI runs the same check on C512's rows
    reranked, rerank = [], fhs._rerank

    def spying_rerank(key, out):
        reranked.append(key.dtype)
        return rerank(key, out)

    monkeypatch.setattr(fhs, "_rerank", spying_rerank)
    rows = constructions.family_b(5, budget=1).fhs.seqs
    check_wide_verify(rows, 2, tmp_path / "wide.json")
    assert reranked


def test_verify_large_m_exits_on_budget(tmp_path, capsys):
    # lambda = 20 of n = 40: refused before the test at L = 21, not run for hours
    record = {"n": 40, "ell": 60, "N": 2, "lambda": 20,
              "sequences": [list(range(40)), list(range(40, 60)) + list(range(20, 40))]}
    path = tmp_path / "fhs_set.json"
    path.write_text(json.dumps(record))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 3
    assert "exceed budget" in out


def test_params_only_a_m12_build_is_instant(tmp_path, capsys):
    # A q = 2^12 at --cap 1: the report holds the two bounds alone, written
    # at once; the sphere-packing value it once held had 6,171 digits, past
    # what str() prints, and the build exited 1 with a traceback
    start = time.monotonic()
    code, out, err = run(capsys, "build", "--family", "A", "--m", "12", "--k", "1",
                         "--cap", "1", "--out", str(tmp_path))
    assert time.monotonic() - start < 5.0
    assert code == 3 and "Traceback" not in err
    assert "parameters-only (enumeration beyond cap)" in out
    report = json.loads((tmp_path / "bound_report.json").read_text())
    assert "sphere_max_N" not in report and "sphere" not in report["meets"]
    assert report["singleton_max_N"] == "16773120" and report["meets"]["singleton"]


def test_bounds_past_the_printable_digits(capsys):
    # the Singleton value 2^100000 // 100000 has 30,098 digits: refused
    start = time.monotonic()
    code, out, err = run(capsys, "bounds", "--n", "100000", "--N", "1",
                         "--ell", "2", "--lambda", "99999")
    assert time.monotonic() - start < 2.0
    assert code == 3 and out == "" and "Traceback" not in err
    assert "BoundTooLarge" in err


def test_report_under_a_lower_int_to_str_limit():
    # 2^2201 // 2201, the Singleton value, has 660 digits: it prints under
    # the default limit, but not under 640 digits, where the report is
    # refused, as it reads the interpreter's limit, not a traceback
    argv = [sys.executable, "-m", "fhsforge", "bounds", "--n", "2201", "--N", "1",
            "--ell", "2", "--lambda", "2200"]
    for limit, exit_code in [(None, 0), ("640", 3)]:
        env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        if limit:
            env["PYTHONINTMAXSTRDIGITS"] = limit
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == exit_code and "Traceback" not in proc.stderr
        if limit:
            assert "BoundTooLarge" in proc.stderr and proc.stdout == ""
        else:
            assert len(json.loads(proc.stdout)["singleton_max_N"]) == 660
