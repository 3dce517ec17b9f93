"""Property test of the CLI contract over argv tokens and record files.

For any argv and any record file, `main` returns 0, 2, 3 or 4 and never
lets an exception escape (which a user would see as a traceback), and
`verify` exits 0 only for a record whose integers are exactly the set it
certifies.  Token values are kept small so that no example builds more
than a few thousand codewords, except one huge --n, --m and --cap value
that the size checks must refuse before any work, and one huge
pf-identity grid limit that the sweep's caps must refuse the same way.
"""

import contextlib
import io
import json
import os
import tempfile
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fhsforge import cyclic
from fhsforge.cli import main
from test_fhs import scalar_max_nontrivial

RECORD = "record.json"

# Each subcommand's own options; a draw takes some of them, in any order.
OPTIONS = {
    "cosets": ["--n", "--q", "--json"],
    "factor": ["--n", "--q", "--json"],
    "code": ["--n", "--q", "--defining-set", "--cosets-given", "--json"],
    "mindist": ["--n", "--q", "--defining-set", "--cosets-given", "--cap"],
    "build": ["--family", "--q", "--m", "--k", "--n", "--out", "--csv", "--cap",
              "--budget"],
    "verify": ["--budget"],
    "bounds": ["--n", "--N", "--ell", "--lambda"],
    "pf-identity": ["--n-max", "--N-max", "--l-max"],
}
SWITCHES = {"--json", "--cosets-given", "--csv"}
BAD = ["-1", "0", "x", "1.5", ""]
# At most 9, --m included: Ding's length (q^m - 1)/(q - 1) reaches 48,427,561
# at q = m = 9, and a factor table past the size caps is refused (exit 3)
# before any work.  --n, --m and --cap also draw one huge value, which
# every size check must refuse before it allocates or powers anything.  A
# huge cap leaves the enumeration to the physical-memory check, which is
# pinned to MEMORY so that it refuses the same codes on every machine:
# those past 2^22 window keys, as the default cap does, such as the 8^9 of
# --n 9 --q 8 with an empty defining set.  The grid limits of pf-identity
# draw 2^30, which passes the sweep's 2^30 check on n_max * N_max when the
# other limit is 1, and which its cell cap then refuses (exit 3).
NUMBER = BAD + ["1", "2", "3", "4", "5", "7", "8", "9"]
HUGE = "100000000000001"
HUGE_GRID = "1073741824"
MEMORY = cyclic.BYTES_PER_KEY << 22
VALUES = {
    "--n": NUMBER + [HUGE],
    "--m": NUMBER + [HUGE],
    "--cap": NUMBER + [HUGE],
    "--n-max": NUMBER + [HUGE_GRID],
    "--N-max": NUMBER + [HUGE_GRID],
    "--l-max": NUMBER + [HUGE_GRID],
    "--family": ["A", "B", "C", "Ding", "D", "a"],
    "--defining-set": ["1", "1,2", "0 3", "1, 2, 4", "9", "x", ""],
    "--out": ["out", RECORD],
}
STRAYS = [*OPTIONS, *sorted(SWITCHES), "--help", "--version", "--", "--n", "-1", "x",
          RECORD, "missing.json"]


@st.composite
def random_argv(draw, command):
    argv = [command]
    if command == "verify":
        argv.append(draw(st.sampled_from([RECORD, "missing.json", "."])))
    for option in draw(st.permutations(OPTIONS[command])):
        if draw(st.booleans()):
            argv.append(option)
            if option not in SWITCHES:
                argv.append(draw(st.sampled_from(VALUES.get(option, NUMBER))))
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(STRAYS)))
    return argv


verify_argv = st.lists(st.sampled_from(["--budget", "0", "1", "-1", "100"]),
                       max_size=2).map(lambda t: ["verify", RECORD, *t])

symbols = st.one_of(
    st.integers(0, 3), st.integers(-2, 2**33), st.booleans(), st.floats(0, 3),
    st.text(max_size=2), st.none(), st.just([1]),
)
rows = st.lists(st.lists(symbols, min_size=1, max_size=5), max_size=5)
small_rows = st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=1, max_size=5))
header = st.one_of(st.integers(-1, 6), st.floats(0, 6), st.booleans(), st.none(),
                   st.text(max_size=2))


@st.composite
def records(draw):
    """Mostly well-formed records over 0..3, with fields and symbols
    sometimes replaced by values of another type or range."""
    seqs = draw(st.one_of(small_rows, small_rows, rows))
    n = len(seqs[0]) if seqs and isinstance(seqs[0], list) else 0
    record = {"n": n, "ell": 4, "N": len(seqs), "lambda": draw(st.integers(0, 5)),
              "provenance": {"family": "imported"}, "sequences": seqs}
    for key in draw(st.lists(st.sampled_from(sorted(record)), max_size=2, unique=True)):
        if draw(st.booleans()):
            del record[key]
        else:
            record[key] = draw(header)
    return draw(st.one_of(st.just(record), st.just(record), st.just(record),
                          st.just([]), st.just("x"), st.just(None)))


# Files that are no JSON record at all: any few bytes, not always UTF-8, and
# runs of brackets, open or closed, up to depths past the JSON decoder's
# recursion limit.
raw_records = st.one_of(
    st.binary(max_size=16),
    st.integers(1, 100_000).map(lambda depth: b"[" * depth),
    st.integers(1, 100_000).map(lambda depth: b"[" * depth + b"]" * depth),
)


@dataclass(frozen=True)
class RecordText:
    """A record file written out by hand, which may hold a valid record."""

    data: bytes


SPACING = ["", " ", "\n  ", "\t", "\r\n", "\r\n\t"]
PROVENANCE = [
    '{"family": "imported"}',
    '{"family": "caf\u00e9"}',  # not ASCII
    '{"note": "\\"sequences\\": [[0, 1]]"}',  # a key and array inside a string
    '{"sequences": [[0, 1]]}',  # a nested key
    '{"x": NaN}',
]
EXTRA_FIELDS = ['"sequences": [[0, 1]]', '"x": NaN', '"y": Infinity']


@st.composite
def record_texts(draw):
    """Records over 0..3 in any layout, with what only their text shows:
    duplicate and nested `sequences` keys, a string that holds one, NaN
    elsewhere, numbers split by whitespace or with leading zeros, tabs and
    CRLF, `[]` and `[[]]`, non-ASCII text and a UTF-8 BOM."""
    seqs = draw(small_rows)
    space = draw(st.sampled_from(SPACING))
    numbers = [[str(value) for value in row] for row in seqs]
    odd = draw(st.sampled_from([None] * 4 + ["split", "zero"]))
    if odd:  # one number split by whitespace, or with a leading zero
        row = draw(st.sampled_from(numbers))
        at = draw(st.integers(0, len(row) - 1))
        glue = draw(st.sampled_from(SPACING[1:])) if odd == "split" else ""
        row[at] = f"{row[at]}{glue}{row[at]}" if glue else f"0{row[at]}"
    rows = ("," + space).join("[" + ",".join(row) + "]" for row in numbers)
    array = draw(st.sampled_from(["[" + space + rows + space + "]"] * 6 + ["[]", "[[]]"]))
    fields = [f'"N": {len(seqs)}', '"ell": 4', f'"lambda": {draw(st.integers(0, 5))}',
              f'"n": {len(seqs[0])}', f'"provenance": {draw(st.sampled_from(PROVENANCE))}',
              f'"sequences": {array}']
    for extra in draw(st.lists(st.sampled_from(EXTRA_FIELDS), max_size=2)):
        fields.insert(draw(st.integers(0, len(fields))), extra)
    text = "{" + space + ("," + space).join(fields) + space + "}"
    bom = draw(st.sampled_from([b""] * 4 + [b"\xef\xbb\xbf"]))
    return RecordText(bom + text.encode())


def exact_lambda(record) -> bool:
    """True when the record holds N distinct length-n rows of exact ints in
    0..ell-1 and its lambda is their exact maximum correlation."""
    seqs = record["sequences"]
    ints = [type(s) is int for row in seqs for s in row]
    if not all(ints) or any(type(record[key]) is not int
                            for key in ("n", "ell", "N", "lambda")):
        return False
    if len({tuple(row) for row in seqs}) != len(seqs) or len(seqs) != record["N"]:
        return False
    if any(len(row) != record["n"] or not all(0 <= s < record["ell"] for s in row)
           for row in seqs):
        return False
    return scalar_max_nontrivial(seqs) == record["lambda"]


@pytest.fixture(autouse=True, scope="module")
def pinned_memory():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cyclic, "_physical_memory", lambda: MEMORY)
        yield


def check_contract(argv, record):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            if isinstance(record, (bytes, RecordText)):
                with open(RECORD, "wb") as fh:
                    fh.write(getattr(record, "data", record))
            else:
                with open(RECORD, "w") as fh:
                    json.dump(record, fh)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    certified = code == 0 and not {"--help", "--version"} & set(argv)
    if "verify" in argv[:1] and certified:  # RECORD is the only file there
        assert not isinstance(record, bytes), (argv, record, out.getvalue())
        if isinstance(record, RecordText):
            record = json.loads(record.data)
        assert exact_lambda(record), (argv, record, out.getvalue())


any_record = st.one_of(records(), records(), records(), raw_records, record_texts())
FUZZ = settings(derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])


@settings(FUZZ, max_examples=150)
@example(argv=["mindist", "--n", "9", "--q", "8", "--defining-set", "", "--cap", HUGE],
         record=[])
@example(argv=["build", "--family", "A", "--m", "9", "--k", "2", "--cap", HUGE],
         record=[])
@example(argv=["pf-identity", "--n-max", HUGE_GRID, "--N-max", "1", "--l-max", "1"],
         record=[])
@example(argv=["pf-identity", "--n-max", "1", "--N-max", HUGE_GRID, "--l-max", "1"],
         record=[])
@given(argv=verify_argv, record=any_record)
def test_cli_contract(argv, record):
    # verify on any record, the huge caps on valid codes and the huge grids
    check_contract(argv, record)


@pytest.mark.parametrize("command", sorted(OPTIONS))
@settings(FUZZ, max_examples=40)
@given(data=st.data(), record=any_record)
def test_subcommand_contract(command, data, record):
    # each subcommand draws its own argv, so none is left to the luck of
    # the derandomized seed
    check_contract(data.draw(random_argv(command), label="argv"), record)


@settings(FUZZ, max_examples=150)
@given(argv=verify_argv, record=record_texts())
def test_verify_record_text_contract(argv, record):
    # the layouts and textual oddities that only a record's bytes show
    check_contract(argv, record)
