"""Golden outputs: mini seed 3's runs in every mode against the committed results.

The acceptance gates bound a run's errors; they do not notice a result
that moves within them (a tuning constant changed, a factor re-weighted).
These tests do: each run of ``golden/regenerate.py``'s ``RUNS`` must give
the committed per-epoch positions to 1e-8 m, attitudes to 1e-8 rad and
``report.json`` numbers to the same bounds (angles in degrees to 1e-8
rad).  LC and VLP-only are held to the TC bounds.  A change that moves
them regenerates ``golden/mini3.json`` and says so as a re-baseline; it
does not widen these bounds.
"""

import json

import numpy as np
import pytest

from vlpnav.attitude import quat_conjugate, quat_multiply

from golden.regenerate import GOLDEN, RUNS, SEED, run

POSITION_ATOL_M = 1e-8
ATTITUDE_ATOL_RAD = 1e-8


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def flatten(record, path=""):
    """``record``'s leaves by their key path, lists and dicts alike."""
    items = record.items() if isinstance(record, dict) else enumerate(record)
    out = {}
    for key, value in items:
        where = f"{path}/{key}"
        out.update(flatten(value, where) if isinstance(value, (dict, list)) else {where: value})
    return out


def test_golden_file_is_for_the_fixture(golden, mini_dataset):
    manifest = json.loads((mini_dataset / "manifest.json").read_text())
    assert (golden["scenario"], golden["seed"]) == ("mini", SEED) == ("mini", manifest["seed"])
    assert sorted(golden["runs"]) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_golden(golden, mini_dataset, tmp_path, name):
    got, want = run(mini_dataset, tmp_path, RUNS[name]), golden["runs"][name]
    np.testing.assert_array_equal(got["timestamp_s"], want["timestamp_s"])
    np.testing.assert_allclose(got["position_m"], want["position_m"],
                               rtol=0, atol=POSITION_ATOL_M)
    q_err = quat_multiply(quat_conjugate(np.array(want["attitude_quat"])),
                          np.array(got["attitude_quat"]))
    angle = 2.0 * np.arctan2(np.linalg.norm(q_err[:, 1:], axis=1), np.abs(q_err[:, 0]))
    assert angle.max() <= ATTITUDE_ATOL_RAD
    got_report, want_report = flatten(got["report"]), flatten(want["report"])
    assert sorted(got_report) == sorted(want_report)
    for key, value in want_report.items():
        if isinstance(value, str):
            assert got_report[key] == value, key
            continue
        atol = np.rad2deg(ATTITUDE_ATOL_RAD) if "_deg" in key else POSITION_ATOL_M
        np.testing.assert_allclose(got_report[key], value, rtol=0, atol=atol, err_msg=key)
