import gzip
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fhsforge.cli import main
from fhsforge.fhs import correlation


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
    assert report["lambda"] == 2 and report["lambda_source"] == "exhaustive"
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


@pytest.mark.parametrize("name", ["A8k1", "A8k2", "B5", "B25"])
def test_verify_reads_stored_benchmark_sets(tmp_path, capsys, name):
    # compact records of sets built under the earlier root-of-unity
    # convention: they are still optimal sets, and verify certifies them
    stored = Path(__file__).resolve().parents[1] / "perfbench" / "data" / f"{name}.json.gz"
    path = tmp_path / f"{name}.json"
    path.write_bytes(gzip.decompress(stored.read_bytes()))
    lam = json.loads(path.read_text())["lambda"]
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert f"stored lambda = {lam}; measured (exhaustive) = {lam}" in out.splitlines()


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
                       "--params-only", "--out", str(out_dir))
    assert code == 3
    assert not (out_dir / "fhs_set.json").exists()
    family = json.loads((out_dir / "family.json").read_text())
    assert family["claimed"]["N"] == "17361641481138401520"
    report = json.loads((out_dir / "bound_report.json").read_text())
    assert report["meets"]["singleton"] is True


def test_build_sampled_exit_code(tmp_path, capsys):
    # over budget: N * n = 120 rotations at L = 1
    out_dir = tmp_path / "b5"
    code, out, _ = run(capsys, "build", "--family", "B", "--q", "5",
                       "--budget", "10", "--out", str(out_dir))
    assert code == 3
    assert "correlation not verified (over budget" in out
    report = json.loads((out_dir / "bound_report.json").read_text())
    assert report["lambda_source"] == "claimed"


def test_build_c32_k1_exact_at_default_budget(tmp_path, capsys):
    out_dir = tmp_path / "c1"
    code, out, _ = run(capsys, "build", "--family", "C", "--q", "32", "--n", "11",
                       "--k", "1", "--out", str(out_dir))
    assert code == 0
    assert "correlation sweep: exhaustive, max = 3" in out.splitlines()
    code, out, _ = run(capsys, "verify", str(out_dir / "fhs_set.json"))
    assert code == 0
    assert "stored lambda = 3; measured (exhaustive) = 3" in out.splitlines()


def test_build_ding(tmp_path, capsys):
    code, out, _ = run(capsys, "build", "--family", "Ding", "--q", "2", "--m", "4",
                       "--out", str(tmp_path / "d"))
    assert code == 0
    assert "predicate_matches_primality: True" in out


def test_build_input_errors(tmp_path, capsys):
    assert run(capsys, "build", "--family", "B", "--q", "4",
               "--out", str(tmp_path))[0] == 4
    assert run(capsys, "build", "--family", "A", "--q", "8",
               "--out", str(tmp_path))[0] == 4  # missing --m/--k


def test_enumeration_cap_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FHSFORGE_CAP", "10")
    code, out, _ = run(capsys, "build", "--family", "B", "--q", "5",
                       "--out", str(tmp_path / "capped"))
    assert code == 3
    assert "parameters-only" in out


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
], ids=["sampled", "samples-seed", "threads", "subcommand", "budget"])
def test_usage_error_is_input_error(capsys, argv):
    # exit 2 would read as a claim mismatch
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert "error:" in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["build", "--family", "A", "--m", "128", "--k", "1", "--params-only"],
    ["build", "--family", "B", "--q", "2305843009213693951", "--params-only"],
    ["build", "--family", "C", "--q", "2305843009213693951", "--n", "3", "--k", "0",
     "--params-only"],
    ["factor", "--n", "3", "--q", "2305843009213693951"],
], ids=["family-A", "family-B", "family-C", "factor"])
def test_field_cap_before_factoring(tmp_path, capsys, argv):
    # each of these used to trial-divide q (or 2^m + 1) without end
    if argv[0] == "build":
        argv = [*argv, "--out", str(tmp_path)]
    code, _, err = run(capsys, *argv)
    assert code == 4
    assert "FieldTooLarge" in err


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


def test_bad_cap_env_is_input_error(capsys, monkeypatch):
    monkeypatch.setenv("FHSFORGE_CAP", "abc")
    code, _, err = run(capsys, "mindist", "--n", "9", "--q", "8",
                       "--defining-set", "3,4,5,6")
    assert code == 4
    assert "FHSFORGE_CAP" in err


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


def test_verify_large_m_exits_on_budget(tmp_path, capsys):
    # lambda = 20 of n = 40: refused before the test at L = 21, not run for hours
    record = {"n": 40, "ell": 60, "N": 2, "lambda": 20,
              "sequences": [list(range(40)), list(range(40, 60)) + list(range(20, 40))]}
    path = tmp_path / "fhs_set.json"
    path.write_text(json.dumps(record))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 3
    assert "exceed budget" in out
