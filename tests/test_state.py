"""The one trajectory layout: ``StateArrays`` against the one-state
``NavState`` it replaced, and the trajectory file that
``cli._write_trajectory`` writes and ``dataio.load_trajectory`` reads."""

import numpy as np

from vlpnav.attitude import quat_from_euler, quat_normalize
from vlpnav.cli import _write_trajectory
from vlpnav.dataio import load_trajectory
from vlpnav.state import ERROR_DIM, StateArrays, boxminus

from _synthetic import NavState, stack_states

FIELDS = ("timestamps", "position", "velocity", "attitude", "bias_acc", "bias_gyro")


def random_states(rng, n):
    return [NavState(float(k) + rng.uniform(), rng.normal(size=3), rng.normal(size=3),
                     quat_from_euler(*rng.uniform(-np.pi, np.pi, 3)),
                     0.1 * rng.normal(size=3), 0.01 * rng.normal(size=3))
            for k in range(n)]


class TestStateArrays:
    def test_perturb_matches_navstate_bit_for_bit(self):
        rng = np.random.default_rng(7)
        states = random_states(rng, 500)
        dx = rng.uniform(-0.5, 0.5, (len(states), ERROR_DIM))  # attitude steps to ~0.5 rad
        batched = stack_states(states).perturb(dx)
        one_by_one = stack_states([s.perturb(d) for s, d in zip(states, dx)])
        for name in FIELDS:
            np.testing.assert_array_equal(getattr(batched, name), getattr(one_by_one, name),
                                          err_msg=name)

    def test_boxminus_matches_navstate_bit_for_bit(self):
        rng = np.random.default_rng(6)
        xs, ys = random_states(rng, 50), random_states(rng, 50)
        for x, y in zip(xs, ys):
            np.testing.assert_array_equal(boxminus(x.row(), y.row()), x.boxminus(y))

    def test_append_rows_and_state_copies(self):
        states = random_states(np.random.default_rng(8), 3)
        rows = [s.row() for s in states]
        traj = StateArrays.empty()
        for row in rows:
            traj = traj.append(row)
        assert len(traj) == 3
        np.testing.assert_array_equal(traj.timestamps, [s.timestamp for s in states])
        for k, s in enumerate(states):
            # Rows hold the values as given, and appending copies them.
            for name in FIELDS[1:]:
                np.testing.assert_array_equal(getattr(traj[k], name), getattr(s, name))
            assert traj[k].timestamps == s.timestamp
            rows[k].position[0] += 1.0
            assert traj.position[k, 0] == s.position[0]
        # A stack appends as its rows do.
        both = traj.append(traj[1:])
        for name in FIELDS:
            np.testing.assert_array_equal(getattr(both, name)[3:], getattr(traj, name)[1:])

    def test_copies_keep_attitude_bits(self):
        # An attitude a rounding off unit norm, which renormalizing changes.
        q = quat_from_euler(0.3, -0.2, 1.1) * (1.0 + 2.0**-50)
        assert not np.array_equal(quat_normalize(q), q)
        state = NavState(0.0, attitude=q)
        np.testing.assert_array_equal(state.attitude, q)
        np.testing.assert_array_equal(state.copy().attitude, q)
        traj = StateArrays.empty().append(state.row())
        np.testing.assert_array_equal(traj.attitude[0], q)
        np.testing.assert_array_equal(traj[0].attitude, q)
        np.testing.assert_array_equal(NavState.of(traj[0]).attitude, q)


class TestTrajectoryFile:
    def test_round_trip_keeps_biases(self, tmp_path):
        traj = stack_states(random_states(np.random.default_rng(9), 6))
        assert np.all(traj.bias_acc != 0.0) and np.all(traj.bias_gyro != 0.0)
        path = tmp_path / "trajectory.csv"
        _write_trajectory(path, traj)
        back = load_trajectory(path)
        for name in FIELDS:
            written = np.vectorize(lambda v: float(f"{v:.12g}"))(getattr(traj, name))
            np.testing.assert_array_equal(getattr(back, name), written, err_msg=name)

    def test_truth_file_has_zero_biases(self, mini_dataset):
        raw = np.loadtxt(mini_dataset / "truth.csv", delimiter=",", skiprows=1)
        truth = load_trajectory(mini_dataset / "truth.csv")
        assert raw.shape[1] == 14
        np.testing.assert_array_equal(truth.timestamps, raw[:, 0])
        np.testing.assert_array_equal(truth.attitude, raw[:, 7:11])
        np.testing.assert_array_equal(truth.bias_acc, np.zeros((len(raw), 3)))
        np.testing.assert_array_equal(truth.bias_gyro, np.zeros((len(raw), 3)))
