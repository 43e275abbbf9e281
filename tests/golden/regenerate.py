#!/usr/bin/env python3
"""Regenerate the golden outputs that ``tests/test_golden.py`` compares.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tests/golden/regenerate.py

Simulates the mini scenario at seed 3, runs each estimate of ``RUNS`` on
it through ``vlpnav`` (``cli.main``) in a temporary directory, and writes
``mini3.json``: per run, the per-epoch timestamps, positions and
quaternions of ``trajectory.csv`` and the numbers of ``report.json``
(without ``runtime_s``).  A change that regenerates this file moves a
result; it is a re-baseline and is recorded as one, with the largest
change per run.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "mini3.json"
SEED = 3
#: Run name -> ``vlpnav estimate`` arguments besides ``--dataset`` and ``--out``.
RUNS = {
    "tc": ["--mode", "tc"],
    "tc_unknown_led5_w20": ["--mode", "tc", "--unknown-leds", "5", "--window", "20"],
    "tc_no_drd": ["--mode", "tc", "--no-drd"],
    "lc": ["--mode", "lc"],
    "vlp_only_level": ["--mode", "vlp_only", "--vlp-variant", "level"],
    "vlp_only_tilt": ["--mode", "vlp_only", "--vlp-variant", "tilt"],
}


def simulate(out: Path) -> None:
    from vlpnav.cli import main

    if main(["simulate", "--scenario", "mini", "--seed", str(SEED), "--out", str(out)]) != 0:
        raise RuntimeError("simulate failed")


def run(dataset: Path, out: Path, args: list) -> dict:
    """One estimate's golden record: its trajectory columns and report."""
    from vlpnav.cli import main
    from vlpnav.dataio import load_trajectory

    if main(["estimate", "--dataset", str(dataset), "--out", str(out)] + args) != 0:
        raise RuntimeError(f"estimate {args} failed")
    traj = load_trajectory(out / "trajectory.csv")
    report = json.loads((out / "report.json").read_text())
    del report["runtime_s"]
    return {"timestamp_s": traj.timestamps.tolist(), "position_m": traj.position.tolist(),
            "attitude_quat": traj.attitude.tolist(), "report": report}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        simulate(tmp / "data")
        golden = {name: run(tmp / "data", tmp / name, args) for name, args in RUNS.items()}
    GOLDEN.write_text(json.dumps({"scenario": "mini", "seed": SEED, "runs": golden},
                                 indent=1) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    sys.exit(main())
