"""Recompute reference/theory_grid_explicit.json, the values the
theory_grid_explicit workload must reproduce at the default seed.

  python3 ridgebench/make_reference.py      (from the root of a checkout)

Only rerun it when a change to ridgelab is meant to move these values by
more than the workload's tolerance, and say so in that change.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402
from ridgelab import cli  # noqa: E402


def main() -> int:
    work = os.path.join(os.getcwd(), ".bench_work", "make_reference")
    os.makedirs(work, exist_ok=True)
    try:
        wl = workloads.TheoryGridExplicit(work, workloads.DEFAULT_SEED, 1)
        wl.generate()
        for argv in wl.commands():
            if cli.run(argv) != 0:
                return 1
        ref = {"seed": wl.seed, "rows": wl.reference_values()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.dirname(workloads.REFERENCE), exist_ok=True)
    files = []
    for csv, rows in ref["rows"].items():
        body = ",\n".join("   " + json.dumps(row) for row in rows)
        files.append(f"  {json.dumps(csv)}: [\n{body}\n  ]")
    with open(workloads.REFERENCE, "w") as fh:
        fh.write(f'{{\n "seed": {ref["seed"]},\n "rows": {{\n' + ",\n".join(files) + "\n }\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
