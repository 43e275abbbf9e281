import json
import math
from dataclasses import fields

import numpy as np
import pytest

from vlpnav.attitude import quat_from_euler
from vlpnav.channel import SampleFlag
from vlpnav.metrics import (
    DisjointTimeRangesError,
    RunReport,
    cdf_table,
    detection_scores,
    evaluate_run,
    heading_error_deg,
    normal_angle_deg,
)
from vlpnav.state import StateArrays


def make_truth(n=20, dt=1.0):
    t = np.arange(n) * dt
    pos = np.stack([0.3 * t, 0.1 * t, np.zeros(n)], axis=1)
    vel = np.tile([0.3, 0.1, 0.0], (n, 1))
    att = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
    zeros = np.zeros((n, 3))
    return StateArrays(t, pos, vel, att, zeros, zeros)


class TestEvaluateRun:
    def test_perfect_trajectory_zero_errors(self):
        truth = make_truth()
        rep = evaluate_run("tc", truth.timestamps, truth.position, truth,
                           est_attitudes=truth.attitude)
        assert rep.mean_3d == 0.0 and rep.max_2d == 0.0
        assert rep.mean_inclination_deg == 0.0
        assert rep.cdf[-1][1] == 1.0
        assert rep.cdf[0][0] == 0.0

    def test_constant_planar_offset(self):
        truth = make_truth()
        est = truth.position + np.array([0.06, 0.08, 0.0])
        rep = evaluate_run("tc", truth.timestamps, est, truth)
        assert rep.mean_2d == pytest.approx(0.1)
        assert rep.max_2d == pytest.approx(0.1)
        assert rep.mean_3d == pytest.approx(0.1)

    def test_cdf_monotone_ends_at_one(self):
        rng = np.random.default_rng(0)
        truth = make_truth(50)
        est = truth.position + 0.05 * rng.standard_normal((50, 3))
        rep = evaluate_run("tc", truth.timestamps, est, truth)
        fractions = [f for _, f in rep.cdf]
        errors = [e for e, _ in rep.cdf]
        assert fractions == sorted(fractions)
        assert errors == sorted(errors)
        assert fractions[-1] == 1.0

    def test_disjoint_ranges_raise(self):
        truth = make_truth()
        with pytest.raises(DisjointTimeRangesError):
            evaluate_run("tc", truth.timestamps + 1000.0, truth.position, truth)

    def test_skewed_timestamps_dropped(self):
        truth = make_truth()
        est_t = truth.timestamps + 0.4  # beyond the 1 ms pairing skew
        est_t[0] = truth.timestamps[0]
        rep = evaluate_run("tc", est_t, truth.position, truth)
        assert rep.n_epochs == 1

    def test_report_json_round_trip(self, tmp_path):
        truth = make_truth()
        rep = evaluate_run("tc", truth.timestamps, truth.position + 0.01, truth,
                           est_attitudes=truth.attitude, runtime_s=1.5)
        # detection_scores returns numpy floats; a diverged LED's error is inf.
        rep.detection_precision = np.float64(1.0)
        rep.detection_recall = np.float64(0.9)
        rep.led_errors = {3: 0.02, 5: math.inf}
        path = tmp_path / "report.json"
        rep.save(path)
        text = path.read_text()
        back = json.loads(text)
        assert list(back) == [f.name for f in fields(RunReport)]
        for f in fields(RunReport):
            if f.name not in ("cdf", "led_errors"):
                assert back[f.name] == getattr(rep, f.name), f.name
        assert back["cdf"] == [[e, p] for e, p in rep.cdf]
        assert back["led_errors"] == {"3": 0.02, "5": math.inf}
        assert '"detection_recall": 0.9,' in text and '"5": Infinity' in text


class TestAngles:
    def test_normal_angle(self):
        q = quat_from_euler(0.0, np.deg2rad(10.0), 1.3)
        assert normal_angle_deg(q, quat_from_euler(0, 0, -0.4)) == pytest.approx(10.0)

    def test_normal_angle_small(self):
        # arccos of the dot product resolves no angle below ~1.5e-8 rad.
        q = quat_from_euler(1e-7, 0.0, 0.8)
        assert normal_angle_deg(q, quat_from_euler(0.0, 0.0, 0.8)) == pytest.approx(
            np.rad2deg(1e-7), rel=1e-6)

    def test_heading_error_wraps(self):
        q1 = quat_from_euler(0, 0, np.deg2rad(179.0))
        q2 = quat_from_euler(0, 0, np.deg2rad(-179.0))
        assert heading_error_deg(q1, q2) == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("fn", [normal_angle_deg, heading_error_deg])
    def test_stack_matches_one_value_calls(self, fn):
        rng = np.random.default_rng(5)
        q_est, q_true = (quat_from_euler(*rng.uniform(-3.0, 3.0, size=(3, 7))) for _ in range(2))
        stacked = fn(q_est, q_true)
        assert stacked.shape == (7,)
        np.testing.assert_array_equal(stacked, [fn(a, b) for a, b in zip(q_est, q_true)])


class TestDetectionScores:
    def test_precision_recall(self):
        truth = np.array([SampleFlag.BLOCKED, SampleFlag.BLOCKED, SampleFlag.LOS,
                          SampleFlag.LOS, SampleFlag.OUT_OF_FOV])
        est = np.array([
            SampleFlag.BLOCKED,     # true positive
            SampleFlag.LOS,         # missed
            SampleFlag.BLOCKED,     # false positive
            SampleFlag.LOS,
            SampleFlag.OUT_OF_FOV,  # any flag but LOS counts as blocked: true positive
        ])
        precision, recall = detection_scores(est, truth)
        assert precision == pytest.approx(2 / 3)
        assert recall == pytest.approx(2 / 3)

    def test_perfect(self):
        truth = np.array([SampleFlag.BLOCKED, SampleFlag.LOS])
        precision, recall = detection_scores(truth.copy(), truth)
        assert precision == 1.0 and recall == 1.0


class TestCdfTable:
    def test_empty(self):
        assert cdf_table([]) == []

    def test_simple(self):
        table = cdf_table([0.3, 0.1, 0.2])
        assert table == [(0.1, pytest.approx(1 / 3)), (0.2, pytest.approx(2 / 3)),
                         (0.3, 1.0)]
