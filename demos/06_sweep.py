"""Verification sweeps: predictor vs oracle over a whole grid.

The workbench enumerates a grid of instances, runs both sides on each
cell, and reduces everything to a summary plus per-cell rows.  Reruns are
byte-identical (per-cell seeds are derived, never shared state), so a
sweep output is a reproducible artifact.
"""

import json
import tempfile
from pathlib import Path

from redsecant import PrimeFieldConfig, SweepConfig, render_csv, render_json, sweep


def main():
    # A small grid: n = 3..4, l = 2, everything of degree <= 5.
    cfg = SweepConfig(
        n_range=(3, 4),
        l_range=(2, 2),
        d_max=5,
        r_max=4,
        oracle=PrimeFieldConfig(trials=2, seed=0),
    )
    rows, summary = sweep(cfg)
    print(f"{summary['total']} cells, {summary['agree']} agree, "
          f"{summary['disagree']} disagree, {summary['skipped']} skipped")
    for status, bucket in sorted(summary["by_status"].items()):
        print(f"  {status}: {bucket['total']} cells, {bucket['agree']} agree")
    print()

    # A few rows, as they would land in the CSV.
    csv_text = render_csv(rows)
    for line in csv_text.splitlines()[:4]:
        print(line)
    print("...")
    print()

    # Determinism: running the same config again gives the same bytes.
    rows2, _ = sweep(cfg)
    print("rerun is byte-identical:", render_csv(rows2) == csv_text)
    print()

    # The family sweeps reuse the same harness; 'n3' restricts itself to the
    # cells the plane-curve classification covers.
    fam_cfg = SweepConfig(
        n_range=(3, 6),
        l_range=(2, 3),
        d_max=6,
        families=("linear_factor", "n3"),
        oracle=PrimeFieldConfig(trials=1, seed=0),
    )
    rows, summary = sweep(fam_cfg)
    fams = sorted({row.family for row in rows})
    print(f"family sweep: {summary['total']} cells across {fams}, "
          f"{summary['agree']} agree")
    print()

    # A sweep returns its rows and summary, and the caller writes the
    # rendered report; JSON keeps the full reports.
    json_cfg = SweepConfig(n_range=(3, 3), l_range=(2, 2), d_max=4,
                           oracle=PrimeFieldConfig(trials=1, seed=0))
    rows, summary = sweep(json_cfg)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep.json"
        out.write_text(render_json(rows, summary, json_cfg), encoding="utf-8")
        doc = json.loads(out.read_text())
        print(f"wrote {out.name}: {len(doc['rows'])} rows, "
              f"summary total {doc['summary']['total']}")


# The sweeps spawn their worker processes, which import this file: keep
# the work under the __main__ guard.
if __name__ == "__main__":
    main()
