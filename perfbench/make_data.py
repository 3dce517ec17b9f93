"""Regenerate the stored FHS sets under perfbench/data.

The paper-verify workload reads these files instead of rebuilding the sets,
so a parent commit and a change always verify identical inputs.  Run this
only to replace the stored sets on purpose:

    PYTHONPATH=src python3 perfbench/make_data.py
"""

import gzip
import json
from pathlib import Path

from fhsforge.constructions import family_a, family_b, family_c

DATA = Path(__file__).resolve().parent / "data"

SETS = {
    "A8k1": lambda: family_a(3, 1, budget=None),
    "A8k2": lambda: family_a(3, 2, budget=None),
    "B5": lambda: family_b(5, budget=None),
    "B25": lambda: family_b(25, budget=None),
    "C512": lambda: family_c(512, 27, 0, budget=None),
}


def main():
    DATA.mkdir(exist_ok=True)
    for name, build in SETS.items():
        record = build().fhs.to_json_dict()
        del record["provenance"]
        text = json.dumps(record, separators=(",", ":"), sort_keys=True)
        with gzip.GzipFile(DATA / f"{name}.json.gz", "wb", mtime=0) as f:
            f.write(text.encode())
        print(name, record["n"], record["N"], record["lambda"], record["ell"])


if __name__ == "__main__":
    main()
