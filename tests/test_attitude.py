import numpy as np
import pytest

from vlpnav.attitude import (
    InvalidQuaternionError,
    apply_small_angle,
    euler_from_quat,
    quat_chain,
    quat_conjugate,
    quat_exp,
    quat_from_euler,
    quat_identity,
    quat_left,
    quat_log,
    quat_multiply,
    quat_normalize,
    quat_right,
    quat_to_dcm,
    skew,
    so3_right_jacobian,
)

from _synthetic import dcm_to_quat


def random_quats(n, seed):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


class TestQuatToDcm:
    def test_identity(self):
        np.testing.assert_allclose(quat_to_dcm(quat_identity()), np.eye(3), atol=1e-15)

    def test_90deg_about_x_third_column(self):
        # Hand evaluation of the receiver-normal column for a 90 deg x-rotation:
        # [2(q1 q3 + q0 q2), 2(q2 q3 - q0 q1), q0^2 - q1^2 - q2^2 + q3^2]
        # with q = (s, s, 0, 0), s = sqrt(2)/2 gives [0, -1, 0].
        s = np.sqrt(2.0) / 2.0
        R = quat_to_dcm([s, s, 0.0, 0.0])
        np.testing.assert_allclose(R[:, 2], [0.0, -1.0, 0.0], atol=1e-15)

    def test_double_cover(self):
        for q in random_quats(50, seed=1):
            np.testing.assert_allclose(quat_to_dcm(q), quat_to_dcm(-q), atol=1e-14)

    def test_rejects_non_normalized(self):
        with pytest.raises(InvalidQuaternionError):
            quat_to_dcm([1.0 + 1e-5, 0.0, 0.0, 0.0])

    def test_proper_orthogonal(self):
        for q in random_quats(50, seed=2):
            R = quat_to_dcm(q)
            np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-9)
            assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-9)

    def test_round_trip_up_to_sign(self):
        for q in random_quats(100, seed=3):
            q2 = dcm_to_quat(quat_to_dcm(q))
            err = min(np.linalg.norm(q2 - q), np.linalg.norm(q2 + q))
            assert err < 1e-9


class TestQuatMultiply:
    def test_identity(self):
        for q in random_quats(20, seed=4):
            np.testing.assert_allclose(quat_multiply(q, quat_identity()), q, atol=1e-15)

    def test_inverse(self):
        for q in random_quats(20, seed=5):
            out = quat_multiply(q, [q[0], -q[1], -q[2], -q[3]])
            np.testing.assert_allclose(np.abs(out[0]), 1.0, atol=1e-12)
            np.testing.assert_allclose(out[1:], 0.0, atol=1e-12)

    def test_two_90x_is_180x(self):
        s = np.sqrt(2.0) / 2.0
        q90 = np.array([s, s, 0.0, 0.0])
        q180 = quat_multiply(q90, q90)
        # Oracle: compose the rotation matrices instead and convert back.
        R = quat_to_dcm(q90) @ quat_to_dcm(q90)
        expected = dcm_to_quat(R)
        err = min(np.linalg.norm(q180 - expected), np.linalg.norm(q180 + expected))
        assert err < 1e-12
        np.testing.assert_allclose(np.abs(q180), [0.0, 1.0, 0.0, 0.0], atol=1e-12)

    def test_matches_matrix_composition(self):
        qs = random_quats(40, seed=6)
        for a, b in zip(qs[::2], qs[1::2]):
            np.testing.assert_allclose(
                quat_to_dcm(quat_multiply(a, b)),
                quat_to_dcm(a) @ quat_to_dcm(b),
                atol=1e-12,
            )

    def test_unit_norm_output(self):
        for a, b in zip(random_quats(20, seed=7), random_quats(20, seed=8)):
            assert abs(np.linalg.norm(quat_multiply(a, b)) - 1.0) < 1e-9

    def test_product_matrices(self):
        a, b = random_quats(20, seed=9), random_quats(20, seed=10)
        ab = np.array([quat_multiply(ak, bk) for ak, bk in zip(a, b)])
        np.testing.assert_allclose((quat_left(a) @ b[:, :, None])[:, :, 0], ab, atol=1e-12)
        np.testing.assert_allclose((quat_right(b) @ a[:, :, None])[:, :, 0], ab, atol=1e-12)


class TestQuatChain:
    def test_matches_multiply_loop_bit_for_bit(self):
        rng = np.random.default_rng(18)
        q0 = random_quats(1, seed=19)[0]
        half_angle = 0.5 * rng.normal(scale=0.05, size=(200, 3))
        q = q0
        expected = [q]
        for h in half_angle:
            q = quat_multiply(q, np.concatenate(([1.0], h)))
            expected.append(q)
        np.testing.assert_array_equal(quat_chain(q0, half_angle), np.array(expected))


class TestApplySmallAngle:
    def test_zero_perturbation(self):
        for q in random_quats(10, seed=11):
            np.testing.assert_allclose(apply_small_angle(q, np.zeros(3)), q, atol=1e-15)

    def test_small_x_rotation_matches_axis_angle(self):
        eps = 1e-4
        q = apply_small_angle(quat_identity(), [eps, 0.0, 0.0])
        exact = quat_exp([eps, 0.0, 0.0])
        assert np.linalg.norm(q - exact) < eps**2

    @pytest.mark.parametrize("mag", [1e-3, 1e-2])
    def test_third_order_agreement_with_exp(self, mag):
        rng = np.random.default_rng(12)
        for _ in range(20):
            q = quat_normalize(rng.normal(size=4))
            dphi = mag * quat_normalize(np.concatenate(([0], rng.normal(size=3))))[1:]
            dphi = mag * dphi / np.linalg.norm(dphi)
            approx = apply_small_angle(q, dphi)
            exact = quat_multiply(q, quat_exp(dphi))
            assert np.linalg.norm(approx - exact) < mag**3

    def test_dcm_disturbance_first_order(self):
        # Perturbing in the child frame appears in the parent frame as
        # (I - [dphi_u x]) R with dphi_u = -R dphi, to first order.
        rng = np.random.default_rng(13)
        for mag in (1e-3, 1e-2):
            q = quat_normalize(rng.normal(size=4))
            dphi = mag * quat_normalize(np.concatenate(([0], rng.normal(size=3))))[1:]
            R = quat_to_dcm(q)
            dphi_u = -R @ dphi
            R_pert = quat_to_dcm(apply_small_angle(q, dphi))
            R_lin = (np.eye(3) - skew(dphi_u)) @ R
            assert np.max(np.abs(R_pert - R_lin)) < 2.0 * mag**2


class TestSkew:
    def test_zero(self):
        np.testing.assert_array_equal(skew(np.zeros(3)), np.zeros((3, 3)))

    def test_basis_cross(self):
        e1, e2, e3 = np.eye(3)
        np.testing.assert_allclose(skew(e1) @ e2, e3, atol=1e-15)

    def test_antisymmetric_and_cross(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            v, w = rng.normal(size=3), rng.normal(size=3)
            S = skew(v)
            np.testing.assert_allclose(S.T, -S, atol=1e-15)
            np.testing.assert_allclose(S @ w, np.cross(v, w), atol=1e-12)


class TestExpLog:
    def test_round_trip(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            phi = rng.normal(size=3)
            phi = phi / np.linalg.norm(phi) * rng.uniform(1e-8, 3.0)
            np.testing.assert_allclose(quat_log(quat_exp(phi)), phi, atol=1e-9)

    def test_right_jacobian_first_order(self):
        rng = np.random.default_rng(16)
        phis = rng.normal(size=(20, 3))
        ds = 1e-6 * rng.normal(size=(20, 3))
        for phi, d, Jr in zip(phis, ds, so3_right_jacobian(phis)):
            lhs = quat_exp(phi + d)
            rhs = quat_multiply(quat_exp(phi), quat_exp(Jr @ d))
            assert np.linalg.norm(lhs - rhs) < 1e-11


class TestEuler:
    def test_round_trip(self):
        rng = np.random.default_rng(17)
        angles = rng.uniform([-1.2, -1.2, -3.0], [1.2, 1.2, 3.0], size=(50, 3))
        out = euler_from_quat(quat_from_euler(*angles.T))
        np.testing.assert_allclose(out, angles, atol=1e-12)

    def test_arrays_match_per_element_calls(self):
        rng = np.random.default_rng(20)
        roll, pitch, yaw = rng.uniform(-3.0, 3.0, size=(3, 100))
        q = quat_from_euler(roll, pitch, yaw)
        assert q.shape == (100, 4)
        np.testing.assert_array_equal(
            q, np.array([quat_from_euler(*a) for a in zip(roll, pitch, yaw)]))

    def test_pure_yaw(self):
        q = quat_from_euler(0.0, 0.0, np.pi / 2)
        R = quat_to_dcm(q)
        np.testing.assert_allclose(R @ [1, 0, 0], [0, 1, 0], atol=1e-12)


def _vectors(seed, *small):
    """(7, 3) random rotation vectors; the last rows scaled to ``small`` norms."""
    v = np.random.default_rng(seed).normal(size=(7, 3))
    for k, norm in enumerate(small, start=7 - len(small)):
        v[k] *= norm / np.linalg.norm(v[k])
    return v


# Each map over a (7, .) stack: its arguments, one stack per argument.  The
# rotation vectors reach the small-angle branches (zero, 1e-13 and 1e-7).
_ROW_MAPS = [
    (quat_normalize, (3.0 * np.random.default_rng(24).normal(size=(7, 4)),)),
    (quat_conjugate, (random_quats(7, seed=25),)),
    (quat_multiply, (random_quats(7, seed=26), random_quats(7, seed=27))),
    (quat_to_dcm, (random_quats(7, seed=28),)),
    (apply_small_angle, (random_quats(7, seed=29), 1e-2 * _vectors(30))),
    (quat_exp, (_vectors(31, 0.0, 1e-13),)),
    (skew, (_vectors(32),)),
    (euler_from_quat, (random_quats(7, seed=33),)),
    (quat_left, (random_quats(7, seed=34),)),
    (quat_right, (random_quats(7, seed=35),)),
    (so3_right_jacobian, (_vectors(36, 0.0, 1e-7),)),
]


@pytest.mark.parametrize("fn, args", _ROW_MAPS, ids=[fn.__name__ for fn, _ in _ROW_MAPS])
def test_stack_matches_one_value_calls(fn, args):
    stacked = fn(*args)
    assert stacked.shape[0] == 7
    np.testing.assert_array_equal(stacked, np.array([fn(*row) for row in zip(*args)]))


@pytest.mark.parametrize("fn, bad", [(quat_normalize, np.zeros(4)),
                                     (quat_to_dcm, np.array([1.0 + 1e-5, 0.0, 0.0, 0.0]))],
                         ids=["quat_normalize", "quat_to_dcm"])
def test_one_bad_row_raises(fn, bad):
    q = random_quats(7, seed=37)
    q[4] = bad
    with pytest.raises(InvalidQuaternionError):
        fn(q)
