import numpy as np
import pytest

from vlpnav.attitude import (
    apply_small_angle,
    quat_from_euler,
    quat_identity,
    quat_normalize,
    quat_to_dcm,
)
from vlpnav.channel import (
    DegenerateGeometryError,
    GrazingIncidenceError,
    LedBeacon,
    ReceiverConfig,
    lambertian,
    predict_rss,
    receiver_normal,
    rss_jacobian,
)

from _synthetic import (
    heading_information,
    los_geometry,
    predict_rss_angular,
    rss_jacobian_2d,
    unknown_led_jacobian,
)

RX = ReceiverConfig(area=1e-4, fov_half_angle=np.pi / 2)


def led_at(pos, power=10.0, order=1.0, led_id=0):
    return LedBeacon(led_id=led_id, position=np.array(pos, dtype=float), power=power, order=order)


def random_valid_pose(rng, led, rx, max_tilt=0.35):
    """Pose below the LED with comfortable angles on both ends."""
    while True:
        pd = np.array([rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), rng.uniform(0.0, 1.0)])
        q = quat_from_euler(rng.uniform(-max_tilt, max_tilt), rng.uniform(-max_tilt, max_tilt),
                            rng.uniform(-np.pi, np.pi))
        geo = los_geometry(pd, q, led)
        if geo.cos_incidence > 0.3 and geo.cos_irradiance > 0.3:
            return pd, q


class TestLosGeometry:
    def test_nadir(self):
        geo = los_geometry([0, 0, 0], quat_identity(), led_at([0, 0, 2]))
        assert geo.distance == pytest.approx(2.0)
        assert geo.cos_incidence == pytest.approx(1.0)
        assert geo.cos_irradiance == pytest.approx(1.0)

    def test_offset_45deg(self):
        geo = los_geometry([0, 0, 0], quat_identity(), led_at([2, 0, 2]))
        assert geo.distance == pytest.approx(2 * np.sqrt(2))
        assert geo.cos_incidence == pytest.approx(1 / np.sqrt(2))
        assert geo.cos_irradiance == pytest.approx(1 / np.sqrt(2))

    def test_orthogonal_normal(self):
        q = quat_from_euler(0.0, np.pi / 2, 0.0)  # normal points along +x
        geo = los_geometry([0, 0, 0], q, led_at([0, 0, 2]))
        assert geo.cos_incidence == pytest.approx(0.0, abs=1e-12)

    def test_coincident_raises(self):
        with pytest.raises(DegenerateGeometryError):
            los_geometry([0, 0, 2], quat_identity(), led_at([0, 0, 2]))


class TestReceiverNormal:
    def test_identity(self):
        np.testing.assert_allclose(receiver_normal(quat_identity()), [0, 0, 1], atol=1e-15)

    def test_pitch_10deg(self):
        a = np.deg2rad(10.0)
        n = receiver_normal(quat_from_euler(0.0, a, 0.0))
        np.testing.assert_allclose(n, [np.sin(a), 0.0, np.cos(a)], atol=1e-12)

    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            q = quat_normalize(rng.normal(size=4))
            assert np.linalg.norm(receiver_normal(q)) == pytest.approx(1.0, abs=1e-12)



class TestLambertianLayout:
    """``einsum`` sums a strided operand in another order than a contiguous
    one; a DCM column (a strided view) and its copy must give the same bits."""

    @pytest.mark.parametrize("per_row_led", [False, True], ids=["one-led", "per-row-led"])
    def test_strided_normals_match_contiguous(self, per_row_led):
        rng = np.random.default_rng(38)
        n = 20_000
        pd = rng.uniform([0.0, 0.0, 0.0], [5.0, 5.0, 2.0], size=(n, 3))
        q = quat_from_euler(*rng.uniform(-0.6, 0.6, size=(2, n)), rng.uniform(-np.pi, np.pi, n))
        pd_normal = quat_to_dcm(q)[:, :, 2]
        led_normal = np.array([0.0, 0.0, 1.0])  # the upward LED normal
        if per_row_led:
            tilt = quat_from_euler(*rng.uniform(-0.3, 0.3, size=(2, n)), 0.0)
            led_normal = quat_to_dcm(tilt)[:, :, 2]
        assert not pd_normal.flags.c_contiguous

        def model(pd_normal, led_normal):
            return lambertian(pd, pd_normal, [2.5, 2.5, 5.0], led_normal, 1.3, 2.0,
                              np.cos(np.deg2rad(75.0)), gradients=True)

        strided = model(pd_normal, led_normal)
        contiguous = model(np.ascontiguousarray(pd_normal), np.ascontiguousarray(led_normal))
        assert np.count_nonzero(contiguous.valid) > n // 2
        for name in ("rss", "valid", "d_pos", "d_att"):
            np.testing.assert_array_equal(getattr(strided, name), getattr(contiguous, name),
                                          err_msg=name)


class TestPredictRss:
    def test_nadir_value(self):
        # (m+1) A P_T / (2 pi) / D^2 with all cosines 1:
        # 2 * 1e-4 * 10 / (2 pi) / 4 = 7.9577e-5 W
        p = predict_rss([0, 0, 0], quat_identity(), led_at([0, 0, 2]), RX)
        assert p == pytest.approx(7.9577e-5, rel=1e-4)

    def test_inverse_square_at_fixed_angles(self):
        led2 = led_at([0, 0, 2])
        led4 = led_at([0, 0, 4])
        q = quat_identity()
        assert predict_rss([0, 0, 0], q, led4, RX) / predict_rss([0, 0, 0], q, led2, RX) == (
            pytest.approx(0.25)
        )

    def test_grazing_boundary_is_zero(self):
        q = quat_from_euler(0.0, np.pi / 2, 0.0)
        assert predict_rss([0, 0, 0], q, led_at([0, 0, 2]), RX) == pytest.approx(0.0, abs=1e-18)

    def test_out_of_fov_marker(self):
        rx = ReceiverConfig(area=1e-4, fov_half_angle=np.deg2rad(30.0))
        assert predict_rss([2, 0, 0], quat_identity(), led_at([0, 0, 1]), rx) is None

    def test_behind_led_marker(self):
        led = LedBeacon(led_id=0, position=np.array([0.0, 0.0, 2.0]), power=10.0,
                        normal=np.array([0.0, 0.0, 1.0]))
        # PD above the LED: irradiance angle past 90 deg.
        assert predict_rss([0, 0, 3], quat_from_euler(0, np.pi, 0), led, RX) is None

    def test_positive_and_continuous_inside_fov(self):
        rng = np.random.default_rng(1)
        led = led_at([0.5, -0.3, 2.5], order=1.7)
        for _ in range(50):
            pd, q = random_valid_pose(rng, led, RX)
            p = predict_rss(pd, q, led, RX)
            assert p is not None and p > 0.0
            p2 = predict_rss(pd + 1e-9, q, led, RX)
            assert p2 == pytest.approx(p, rel=1e-6)

    def test_vector_form_equals_angular_form(self):
        rng = np.random.default_rng(2)
        led = led_at([0.4, 0.9, 2.2], order=2.3)
        for _ in range(100):
            pd, q = random_valid_pose(rng, led, RX)
            a = predict_rss(pd, q, led, RX)
            b = predict_rss_angular(pd, q, led, RX)
            assert a == pytest.approx(b, rel=1e-12)


def fd_position_gradient(pd, q, led, rx, h=1e-6):
    g = np.zeros(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        g[i] = (predict_rss(pd + e, q, led, rx) - predict_rss(pd - e, q, led, rx)) / (2 * h)
    return g


def fd_attitude_gradient_uframe(pd, q, led, rx, h=1e-6):
    """Central differences along room-frame disturbance angles."""
    from vlpnav.attitude import quat_to_dcm

    g = np.zeros(3)
    R = quat_to_dcm(q)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        # dphi_u = -R dphi_v  =>  dphi_v = -R^T dphi_u
        qp = apply_small_angle(q, -R.T @ e)
        qm = apply_small_angle(q, R.T @ e)
        g[i] = (predict_rss(pd, qp, led, rx) - predict_rss(pd, qm, led, rx)) / (2 * h)
    return g


class TestRssJacobian:
    def test_nadir_attitude_gradient_zero(self):
        _, dp_dphi = rss_jacobian([0, 0, 0], quat_identity(), led_at([0, 0, 2]), RX)
        np.testing.assert_allclose(dp_dphi, 0.0, atol=1e-18)

    def test_heading_null_direction(self):
        rng = np.random.default_rng(3)
        led = led_at([1.2, -0.7, 2.8], order=1.4)
        for _ in range(100):
            pd, q = random_valid_pose(rng, led, RX)
            _, dp_dphi = rss_jacobian(pd, q, led, RX)
            n = receiver_normal(q)
            assert abs(dp_dphi @ n) < 1e-16 * max(1.0, np.linalg.norm(dp_dphi))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        led = led_at([0.8, 0.2, 2.4], order=1.9)
        for _ in range(50):
            pd, q = random_valid_pose(rng, led, RX)
            dp_dr, dp_dphi = rss_jacobian(pd, q, led, RX)
            fd_r = fd_position_gradient(pd, q, led, RX)
            fd_phi = fd_attitude_gradient_uframe(pd, q, led, RX)
            scale = max(np.linalg.norm(fd_r), 1e-12)
            assert np.max(np.abs(dp_dr - fd_r)) / scale < 1e-5
            scale_phi = max(np.linalg.norm(fd_phi), np.linalg.norm(dp_dr) * 1e-3)
            assert np.max(np.abs(dp_dphi - fd_phi)) / scale_phi < 1e-5

    def test_grazing_raises(self):
        q = quat_from_euler(0.0, np.pi / 2 - 1e-8, 0.0)
        with pytest.raises(GrazingIncidenceError):
            rss_jacobian([0, 0, 0], q, led_at([0, 0, 2]), RX)
        # Out of a 30 deg FOV at 63 deg incidence: both cosines clear the
        # grazing floor, but there is no prediction to differentiate.
        rx30 = ReceiverConfig(area=1e-4, fov_half_angle=np.deg2rad(30.0))
        with pytest.raises(GrazingIncidenceError):
            rss_jacobian([2, 0, 0], quat_identity(), led_at([0, 0, 1]), rx30)
        with pytest.raises(DegenerateGeometryError):
            rss_jacobian([0, 0, 2], quat_identity(), led_at([0, 0, 2]), RX)


class TestRssJacobian2d:
    def test_equals_planar_rows_of_full_jacobian(self):
        rng = np.random.default_rng(5)
        led = led_at([0.6, 1.1, 2.6], order=1.3)
        for _ in range(50):
            pd, q = random_valid_pose(rng, led, RX)
            dp_dr, dp_dphi = rss_jacobian(pd, q, led, RX)
            dp_ds, dp_dphi2 = rss_jacobian_2d(pd, q, led, RX)
            # Upward LED normal has no planar component, so the m_l term drops.
            np.testing.assert_allclose(dp_ds, dp_dr[:2], rtol=1e-12, atol=1e-18)
            np.testing.assert_allclose(dp_dphi2, dp_dphi, rtol=1e-12)

    def test_level_pd_simplification(self):
        led = led_at([1.0, -0.5, 2.0], order=2.0)
        pd = np.array([0.2, 0.3, 0.0])
        dp_ds, _ = rss_jacobian_2d(pd, quat_identity(), led, RX)
        p = predict_rss(pd, quat_identity(), led, RX)
        d = led.position - pd
        expected = p * (3.0 + led.order) * d[:2] / (d @ d)
        np.testing.assert_allclose(dp_ds, expected, rtol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        led = led_at([0.3, 0.8, 2.1], order=1.6)
        for _ in range(50):
            pd, q = random_valid_pose(rng, led, RX)
            dp_ds, _ = rss_jacobian_2d(pd, q, led, RX)
            fd = fd_position_gradient(pd, q, led, RX)[:2]
            assert np.max(np.abs(dp_ds - fd)) / max(np.linalg.norm(fd), 1e-12) < 1e-5

    def test_unknown_led_row_is_negated_planar_row(self):
        rng = np.random.default_rng(7)
        led = led_at([0.9, 0.1, 2.3], order=1.2)
        for _ in range(30):
            pd, q = random_valid_pose(rng, led, RX)
            dp_ds, _ = rss_jacobian_2d(pd, q, led, RX)
            np.testing.assert_allclose(unknown_led_jacobian(pd, q, led, RX), -dp_ds, rtol=1e-12)

    def test_rejects_tilted_led(self):
        led = LedBeacon(led_id=0, position=np.array([0.0, 0.0, 2.0]), power=10.0,
                        normal=np.array([0.0, np.sin(0.1), np.cos(0.1)]))
        with pytest.raises(ValueError):
            rss_jacobian_2d([0, 0, 0], quat_identity(), led, RX)


# Experiment-A-style ceiling layout used for the multi-LED sweeps.
EXPA_LEDS = [
    led_at([0.35, 1.34, 2.8], led_id=1),
    led_at([3.56, 1.15, 2.8], led_id=2),
    led_at([1.71, 3.31, 2.8], led_id=3),
    led_at([3.50, 6.25, 2.8], led_id=4),
    led_at([0.35, 5.97, 2.8], led_id=5),
]


class TestHeadingInformation:
    def test_single_led_zero(self):
        info = heading_information([0.5, 0.5, 0.0], quat_identity(), [EXPA_LEDS[0]], RX)
        assert info < 1e-24

    def test_five_led_level_zero(self):
        info = heading_information([1.9, 3.0, 0.0], quat_identity(), EXPA_LEDS, RX)
        assert info < 1e-24

    def test_tilted_random_geometry_zero(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            pd = np.array([rng.uniform(0.5, 3.3), rng.uniform(0.5, 5.8), rng.uniform(0, 0.5)])
            q = quat_from_euler(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                                rng.uniform(-np.pi, np.pi))
            assert heading_information(pd, q, EXPA_LEDS, RX) < 1e-20


class TestTypes:
    def test_led_validation(self):
        with pytest.raises(ValueError):
            LedBeacon(led_id=0, position=np.zeros(3), power=1.0, order=0.5)
        with pytest.raises(ValueError):
            LedBeacon(led_id=0, position=np.zeros(3), power=-1.0)
        with pytest.raises(ValueError):
            LedBeacon(led_id=0, position=np.zeros(3), power=1.0,
                      normal=np.array([0.0, 0.0, 2.0]))

    def test_receiver_validation(self):
        with pytest.raises(ValueError):
            ReceiverConfig(area=-1e-4, fov_half_angle=1.0)
        with pytest.raises(ValueError):
            ReceiverConfig(area=1e-4, fov_half_angle=2.0)
