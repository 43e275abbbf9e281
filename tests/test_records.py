import json
from dataclasses import replace

import numpy as np
import pytest

from vlpnav.blockage import DetectionSpec
from vlpnav.channel import LedBeacon, ReceiverConfig
from vlpnav.cli import build_detector, main
from vlpnav.dataio import estimator_config_from_dict, load_dataset
from vlpnav.preint import ImuNoise
from vlpnav.records import from_record, to_record
from vlpnav.simulator import RssSpec, Scenario, reference_scenarios


def leaves(rec, path=""):
    if isinstance(rec, dict):
        for k, v in rec.items():
            yield from leaves(v, f"{path}.{k}")
    else:
        yield path, rec


@pytest.fixture(scope="module")
def mini(mini_dataset):
    return load_dataset(mini_dataset)


#: What a dataset or a run sets; the method's tuning values and factors (the
#: NHC among them) are the estimator's.
SETTABLE = {
    ".imu_noise.accel_density", ".imu_noise.gyro_density", ".imu_noise.accel_bias_walk",
    ".imu_noise.gyro_bias_walk", ".window_size", ".gravity", ".use_height",
    ".unknown_led_ids",
}


class TestEstimatorConfig:
    def test_json_round_trip_of_every_field(self, mini):
        base = estimator_config_from_dict({}, mini)
        cfg = replace(
            base, window_size=7, gravity=(0.0, 0.0, -9.8),
            imu_noise=ImuNoise(1e-3, 2e-4, 3e-5, 4e-6),
            use_height=not base.use_height,
            unknown_led_ids=(2, 5))
        base_leaves = dict(leaves(to_record(base)))
        assert set(base_leaves) == SETTABLE
        for path, value in leaves(to_record(cfg)):
            assert value != base_leaves[path], path
        back = estimator_config_from_dict(json.loads(json.dumps(to_record(cfg))), mini)
        assert back == cfg

    def test_dataset_defaults(self, mini):
        cfg = estimator_config_from_dict({}, mini)
        imu = mini.manifest["imu"]
        assert cfg.imu_noise.accel_density == imu["accel_noise_density"]
        assert cfg.gravity == tuple(mini.manifest["gravity"])
        assert cfg.window_size == 20
        assert cfg.use_height is mini.manifest["planar"]

    def test_section_overlays_dataset_base(self, mini):
        base = estimator_config_from_dict({}, mini)
        cfg = estimator_config_from_dict({"imu_noise": {"accel_density": 0.01}}, mini)
        assert cfg.imu_noise == replace(base.imu_noise, accel_density=0.01)

    @pytest.mark.parametrize("d,window", [
        ({"unknown_led_ids": [5]}, 50),
        ({"unknown_led_ids": [5], "window_size": 30}, 30),
        ({"unknown_led_ids": []}, 20),
    ])
    def test_unknown_led_window(self, mini, d, window):
        assert estimator_config_from_dict(d, mini).window_size == window

    @pytest.mark.parametrize("d,message", [
        ({"windowsize": 5}, "unknown field"),
        ({"constraints": {"use_nhc": False, "nhc": 1.0}}, "unknown field"),
        ({"use_nhc": False}, "unknown field"),
        ({"imu_noise": 5}, "expected an object"),
        ({"window_size": "5"}, "expected int"),
        ({"window_size": 5.5}, "expected int"),
        ({"use_height": 0}, "expected bool"),
        ({"gravity": 9.8}, "expected a list"),
        ({"unknown_led_ids": ["a"]}, "expected int"),
        ({"pd_height": 0.3}, "unknown field"),  # the receiver's
        # The method's tuning values are estimator constants, not settings.
        ({"lm": {"max_iterations": 20}}, "unknown field"),
        ({"prior": {"heading": 0.01}}, "unknown field"),
        ({"blocked_variance": 50.0}, "unknown field"),
        ({"unknown_led_prior_sigma": 5.0}, "unknown field"),
        ({"constraints": {"nhc_sigma": 0.1}}, "unknown field"),
        ({"constraints": {"height_sigma": 0.02}}, "unknown field"),
        # The NHC is part of the method, and the height switch is flat.
        ({"constraints": {"use_height": True}}, "unknown field"),
        ({"use_nhc": True}, "unknown field"),
        ({"unknown_led_ids": [5, 5]}, "repeats an id"),
    ])
    def test_bad_record_rejected(self, mini, d, message):
        with pytest.raises(ValueError, match=message):
            estimator_config_from_dict(d, mini)


class TestScenario:
    def test_missing_required_field(self):
        d = reference_scenarios()["mini"].to_dict()
        del d["trajectory"]["speeds"]
        with pytest.raises(ValueError, match="missing required field 'speeds'"):
            Scenario.from_dict(d)

    def test_unknown_key(self):
        d = reference_scenarios()["mini"].to_dict()
        d["rss"]["epoch_rate"] = 2.0
        with pytest.raises(ValueError, match="unknown field"):
            Scenario.from_dict(d)

    def test_optional_sections_default(self):
        d = reference_scenarios()["mini"].to_dict()
        for key in ("rss", "detection", "blockages", "gravity"):
            del d[key]
        sc = Scenario.from_dict(d)
        assert sc.rss == RssSpec()
        assert sc.blockages == ()
        assert sc.trajectory.waypoints == reference_scenarios()["mini"].trajectory.waypoints


class TestDetectionRecord:
    def test_manifest_block_reads_back_as_the_scenario_record(self, tmp_path):
        d = reference_scenarios()["mini"].to_dict()
        d["detection"] = to_record(DetectionSpec(v_max=0.7, omega_max=0.65, value_floor=0.02,
                                                 max_tilt_deg=15.0))
        (tmp_path / "scenario.json").write_text(json.dumps(d))
        data = tmp_path / "data"
        assert main(["simulate", "--scenario", str(tmp_path / "scenario.json"),
                     "--out", str(data)]) == 0
        scenario = Scenario.from_json(data / "scenario.json")
        assert scenario.detection != DetectionSpec()
        assert build_detector(load_dataset(data)).cfg == scenario.detection

    def test_omitted_keys_take_the_defaults(self):
        d = reference_scenarios()["mini"].to_dict()
        d["detection"] = {"v_max": 0.4, "max_tilt_deg": 10.0}
        assert Scenario.from_dict(d).detection == DetectionSpec(
            v_max=0.4, omega_max=0.6, value_floor=0.05, max_tilt_deg=10.0)


class TestChannelRecords:
    def test_led_record(self):
        led = LedBeacon(led_id=3, position=np.array([1.0, 2.0, 3.0]), power=2.0,
                        order=1.5, modulation_hz=1800.0)
        rec = led.to_record()
        assert list(rec) == ["id", "position", "normal", "order", "power", "modulation_hz"]
        back = LedBeacon.from_record(json.loads(json.dumps(rec)))
        assert back.to_record() == rec
        assert LedBeacon.from_record({"id": 4, "position": [0, 0, 3], "power": 1.0}).order == 1.0

    def test_receiver_record_in_degrees(self):
        rx = ReceiverConfig(area=1e-4, fov_half_angle=np.deg2rad(75.0), pd_height=0.3)
        rec = rx.to_record()
        assert rec["fov_half_angle_deg"] == pytest.approx(75.0)
        back = ReceiverConfig.from_record(json.loads(json.dumps(rec)))
        assert back.fov_half_angle == rx.fov_half_angle
        assert back.to_record() == rec
        with pytest.raises(ValueError, match="fov_half_angle_deg: expected float"):
            ReceiverConfig.from_record({**rec, "fov_half_angle_deg": "75"})

    def test_nested_records_use_the_hooks(self):
        sc = reference_scenarios()["mini"]
        rec = to_record(sc)
        assert rec["leds"][0]["id"] == sc.leds[0].led_id
        assert "fov_half_angle_deg" in rec["receiver"]
        back = from_record(Scenario, rec)
        assert back.to_dict() == sc.to_dict()
