import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vlpnav.blockage import DetectionSpec
from vlpnav.channel import LedBeacon, ReceiverConfig
from vlpnav.cli import build_detector, estimator_config, main
from vlpnav.dataio import load_dataset
from vlpnav.estimator import EstimatorConfig
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


def edited_dataset(mini_dataset, tmp_path, d) -> Path:
    """A copy of the dataset's ``manifest.json`` and ``leds.json`` with the
    edits ``d``: per file, keys laid over the manifest (an object over an
    object block) or over the first LED record."""
    manifest = json.loads((mini_dataset / "manifest.json").read_text())
    leds = json.loads((mini_dataset / "leds.json").read_text())
    for name, edit in d.items():
        target = manifest if name == "manifest.json" else leds[0]
        for key, value in edit.items():
            both = isinstance(value, dict) and isinstance(target.get(key), dict)
            target[key] = target[key] | value if both else value
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    (tmp_path / "leds.json").write_text(json.dumps(leds))
    return tmp_path


class TestEstimatorConfig:
    """The estimator's settings: the dataset manifest's records, decoded by
    ``load_dataset``, and the run's options."""

    def test_json_round_trip_of_every_field(self, mini):
        base = estimator_config(mini)
        cfg = replace(
            base, window_size=7, gravity=(0.0, 0.0, -9.8),
            imu_noise=ImuNoise(1e-3, 2e-4, 3e-5, 4e-6),
            use_height=not base.use_height,
            unknown_led_ids=(2, 5))
        base_leaves = dict(leaves(to_record(base)))
        assert set(base_leaves) == SETTABLE
        for path, value in leaves(to_record(cfg)):
            assert value != base_leaves[path], path
        back = from_record(EstimatorConfig, json.loads(json.dumps(to_record(cfg))))
        assert back == cfg

    def test_dataset_defaults(self, mini, mini_dataset):
        cfg = estimator_config(mini)
        manifest = json.loads((mini_dataset / "manifest.json").read_text())
        imu = manifest["imu"]
        walk = np.sqrt(2.0 / imu["bias_corr_time"])
        assert cfg.imu_noise == ImuNoise(
            imu["accel_noise_density"], imu["gyro_noise_density"],
            imu["accel_bias_instability"] * walk, imu["gyro_bias_instability"] * walk)
        assert cfg.gravity == tuple(manifest["gravity"])
        assert cfg.window_size == 20
        assert cfg.use_height is manifest["planar"] is False

    def test_planar_manifest_turns_height_on(self, tmp_path):
        """expA's robot drives on a plane: its manifest says so, and the
        height constraint is on."""
        data = tmp_path / "expA"
        assert main(["simulate", "--scenario", "expA", "--seed", "11", "--out", str(data)]) == 0
        ds = load_dataset(data)
        assert json.loads((data / "manifest.json").read_text())["planar"] is True
        assert ds.planar and estimator_config(ds).use_height

    def test_section_overlays_dataset_base(self, mini, mini_dataset, tmp_path):
        """A sweep edits the manifest's ``imu`` block: only that noise moves."""
        data = edited_dataset(mini_dataset, tmp_path,
                              {"manifest.json": {"imu": {"accel_noise_density": 0.01}}})
        for name in ("imu.csv", "rss_raw.csv", "rss_epoch.csv"):
            shutil.copy(mini_dataset / name, data)
        base = estimator_config(mini)
        cfg = estimator_config(load_dataset(data))
        assert cfg == replace(base, imu_noise=replace(base.imu_noise, accel_density=0.01))

    @pytest.mark.parametrize("d,window", [
        ({"unknown_led_ids": [5]}, 50),
        ({"unknown_led_ids": [5], "window": 30}, 30),
        ({"unknown_led_ids": []}, 20),
    ])
    def test_unknown_led_window(self, mini, d, window):
        assert estimator_config(mini, **d).window_size == window

    @pytest.mark.parametrize("d,message", [
        # The estimator's settings are not dataset facts: a block that
        # names one is rejected.
        ({"manifest.json": {"imu": {"window_size": 20}}}, "unknown field"),
        ({"manifest.json": {"imu": {"accel_density": 0.01}}}, "unknown field"),
        ({"manifest.json": {"imu": {"use_height": True}}}, "unknown field"),
        ({"manifest.json": {"imu": 5}}, "expected an object"),
        ({"leds.json": {"id": "5"}}, "expected int"),
        ({"leds.json": {"id": 5.5}}, "expected int"),
        ({"manifest.json": {"planar": 0}}, "expected bool"),
        ({"manifest.json": {"gravity": 9.8}}, "expected a list"),
        ({"leds.json": {"id": True}}, "expected int"),
        ({"manifest.json": {"receiver": {"pd_heigth": 0.3}}}, "unknown field"),
        ({"manifest.json": {"imu": {"gyro_bias_walk": 1e-5}}}, "unknown field"),
        ({"manifest.json": {"imu": {"lm": {"max_iterations": 20}}}}, "unknown field"),
        ({"manifest.json": {"imu": {"unknown_led_ids": [5]}}}, "unknown field"),
        ({"manifest.json": {"receiver": {"height_sigma": 0.02}}}, "unknown field"),
        ({"manifest.json": {"receiver": {"nhc_sigma": 0.05}}}, "unknown field"),
        ({"manifest.json": {"detection": {"v_max_mps": 0.6}}}, "unknown field"),
        ({"manifest.json": {"detection": {"blocked_variance": 50.0}}}, "unknown field"),
        ({"leds.json": {"power_w": 1.0}}, "unknown field"),
        ({"leds.json": {"id": 2}}, "repeats an id"),
    ])
    def test_bad_record_rejected(self, mini_dataset, tmp_path, d, message):
        data = edited_dataset(mini_dataset, tmp_path, d)
        name = next(iter(d))
        with pytest.raises(ValueError, match=f"{name}: .*{message}"):
            load_dataset(data)


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
