import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import vlpnav.cli
from vlpnav.cli import (
    BLAS_THREAD_VARS,
    TRAJ_HEADER,
    _estimator_config,
    build_detector,
    build_parser,
    estimator_config,
    main,
    run_detection,
    run_tc,
)
from vlpnav.channel import LedTable, SampleFlag
from vlpnav.dataio import load_dataset
from vlpnav.estimator import STOP_REASONS, LmIteration, LmReport, TightlyCoupledEstimator


def sha_files(d, names):
    return {n: hashlib.sha256((Path(d) / n).read_bytes()).hexdigest() for n in names}


DATA_FILES = ("imu.csv", "rss_raw.csv", "rss_epoch.csv", "truth.csv", "leds.json")


def test_import_leaves_out_metadata_and_masked_arrays():
    # Every run of the CLI pays for what importing it loads: only
    # write_dataset reads the package version, and nothing needs numpy.ma.
    src = Path(vlpnav.cli.__file__).resolve().parents[1]
    code = ("import sys, vlpnav.cli; "
            "print(sorted({'numpy.ma', 'importlib.metadata'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


class TestSimulate:
    def test_writes_complete_dataset(self, mini_dataset):
        for name in DATA_FILES + ("scenario.json", "manifest.json"):
            assert (mini_dataset / name).exists()
        man = json.loads((mini_dataset / "manifest.json").read_text())
        assert man["seed"] == 3
        assert set(man["file_sha256"]) >= set(DATA_FILES)

    def test_epoch_count_spans_duration(self, mini_dataset):
        ds = load_dataset(mini_dataset)
        duration = ds.imu.timestamps[-1]
        # 1 Hz epochs with half-window margins at both ends.
        assert np.unique(ds.epoch_samples["timestamp"]).size == int(np.floor(duration))

    def test_same_seed_identical_hashes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--scenario", "mini", "--out", str(a), "--seed", "5"]) == 0
        assert main(["simulate", "--scenario", "mini", "--out", str(b), "--seed", "5"]) == 0
        assert sha_files(a, DATA_FILES) == sha_files(b, DATA_FILES)

    def test_missing_scenario_exit_2(self, tmp_path):
        assert main(["simulate", "--scenario", "/nope/missing.json",
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("edit", ["missing", "unknown", "not_object", "bad_bound"])
    def test_bad_scenario_file_exit_2(self, tmp_path, mini_dataset, edit):
        d = json.loads((mini_dataset / "scenario.json").read_text())
        if edit == "missing":
            del d["trajectory"]["waypoints"]
        elif edit == "unknown":
            d["imu"]["rate"] = 100.0
        elif edit == "bad_bound":
            d["detection"]["v_max"] = 0
        else:
            d["rss"] = 5
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(d))
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "x")]) == 2

    def test_scenario_file_round_trip(self, tmp_path, mini_dataset):
        out = tmp_path / "from_file"
        rc = main(["simulate", "--scenario", str(mini_dataset / "scenario.json"),
                   "--out", str(out)])
        assert rc == 0
        assert sha_files(out, DATA_FILES) == sha_files(mini_dataset, DATA_FILES)


class TestDetect:
    def test_writes_tags(self, mini_dataset, tmp_path):
        out = tmp_path / "det"
        assert main(["detect", "--dataset", str(mini_dataset), "--out", str(out)]) == 0
        tags = np.loadtxt(out / "drd_tags.csv", delimiter=",", skiprows=1)
        assert tags.shape[1] == 4
        # Clean dataset: no transitions anywhere.
        assert tags[:, 2].max() == 0
        assert tags[:, 3].max() == 0

    @pytest.mark.parametrize("edit", [{"v_max": -1.0}, {"omega_max": "fast"},
                                      {"v_max_mps": 0.6}, None],
                             ids=["bad_bound", "wrong_type", "unknown_key", "not_object"])
    def test_bad_detection_record_exit_2(self, mini_dataset, tmp_path, edit):
        data = tmp_path / "data"
        shutil.copytree(mini_dataset, data)
        man = json.loads((data / "manifest.json").read_text())
        man["detection"] = None if edit is None else man["detection"] | edit
        (data / "manifest.json").write_text(json.dumps(man))
        out = tmp_path / "det"
        assert main(["detect", "--dataset", str(data), "--out", str(out)]) == 2
        assert not out.exists()

    def test_missing_detection_keys_take_defaults(self, mini_dataset, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(mini_dataset, data)
        man = json.loads((data / "manifest.json").read_text())
        del man["detection"]["value_floor"]
        (data / "manifest.json").write_text(json.dumps(man))
        assert main(["detect", "--dataset", str(data), "--out", str(tmp_path / "det")]) == 0

    def test_under_rate_stream_exit_2(self, mini_dataset, tmp_path):
        """The manifest still says 120 Hz; the stream itself is at 50 Hz."""
        data = tmp_path / "data"
        shutil.copytree(mini_dataset, data)
        raw = np.loadtxt(data / "rss_raw.csv", delimiter=",", skiprows=1)
        times = np.unique(raw[:, 0])
        kept = times[np.round(np.arange(0, times.size - 1, 120 / 50)).astype(int)]
        np.savetxt(data / "rss_raw.csv", raw[np.isin(raw[:, 0], kept)], fmt="%.12g",
                   delimiter=",", header="timestamp_s,led_id,value", comments="")
        out = tmp_path / "det"
        assert main(["detect", "--dataset", str(data), "--out", str(out)]) == 2
        assert not out.exists()


class TestMalformedDataset:
    @pytest.mark.parametrize("name", ["rss_epoch.csv", "rss_raw.csv", "imu.csv"])
    @pytest.mark.parametrize("command", ["detect", "estimate"])
    def test_header_only_file_exit_2(self, mini_dataset, tmp_path, command, name):
        data = tmp_path / "data"
        shutil.copytree(mini_dataset, data)
        header = (data / name).read_text().splitlines()[0]
        (data / name).write_text(header + "\n")
        out = tmp_path / "out"
        assert main([command, "--dataset", str(data), "--out", str(out)]) == 2
        assert not out.exists()

    #: The file, the column of its first row to overwrite and the value; a
    #: column of None keeps the header and the first row only.
    BAD_ROWS = {
        "flag_truth_3": ("rss_epoch.csv", 4, "3"),
        "epoch_led_off_map": ("rss_epoch.csv", 1, "9"),
        "raw_led_off_map": ("rss_raw.csv", 1, "9"),
        "negative_value": ("rss_epoch.csv", 2, "-0.5"),
        "zero_variance": ("rss_epoch.csv", 3, "0"),
        "imu_one_row": ("imu.csv", None, None),
    }

    @pytest.mark.parametrize("case", BAD_ROWS)
    @pytest.mark.parametrize("command", ["detect", "estimate"])
    def test_bad_row_exit_2(self, mini_dataset, tmp_path, command, case):
        name, col, value = self.BAD_ROWS[case]
        data = tmp_path / "data"
        shutil.copytree(mini_dataset, data)
        lines = (data / name).read_text().splitlines()
        if col is None:
            lines = lines[:2]
        else:
            row = lines[1].split(",")
            row[col] = value
            lines[1] = ",".join(row)
        (data / name).write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main([command, "--dataset", str(data), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["detect", "estimate"])
    def test_repeated_raw_timestamp_exit_2(self, mini_dataset, tmp_path, capsys, command):
        """An LED's raw rows must increase in time: DRD divides by their
        spacing.  Here the repeat follows a blocked sample."""
        data = tmp_path / "data"
        shutil.copytree(mini_dataset, data)
        raw = np.loadtxt(data / "rss_raw.csv", delimiter=",", skiprows=1)
        k = np.flatnonzero(raw[:, 1] == 1)[10:12]
        raw[k[0], 2] = 0.0
        raw[k[1], 0] = raw[k[0], 0]
        np.savetxt(data / "rss_raw.csv", raw, fmt="%.12g", delimiter=",",
                   header="timestamp_s,led_id,value", comments="")
        out = tmp_path / "out"
        assert main([command, "--dataset", str(data), "--out", str(out)]) == 2
        assert "rss_raw.csv: an LED's timestamps do not increase" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit", [{"id": "1"}, {"id": 2}, {"power_w": 1.0}],
                             ids=["string id", "repeated id", "unknown key"])
    @pytest.mark.parametrize("command", ["detect", "estimate"])
    def test_bad_led_record_exit_2(self, mini_dataset, tmp_path, capsys, command, edit):
        data = tmp_path / "data"
        shutil.copytree(mini_dataset, data)
        leds = json.loads((data / "leds.json").read_text())
        leds[0] |= edit
        (data / "leds.json").write_text(json.dumps(leds))
        out = tmp_path / "out"
        assert main([command, "--dataset", str(data), "--out", str(out)]) == 2
        assert "leds.json: " in capsys.readouterr().err
        assert not out.exists()

    def test_build_detector_leaves_the_room_box(self, mini_dataset):
        """The detector's box cuts z to the vehicle's heights in a copy: LC
        and VLP-only read the dataset's room box after detection."""
        ds = load_dataset(mini_dataset)
        room = [bound.copy() for bound in ds.room]
        detector = build_detector(ds)
        assert detector.thresholds
        for bound, before in zip(ds.room, room):
            np.testing.assert_array_equal(bound, before)
            assert not bound.flags.writeable

    def test_detect_one_raw_row(self, mini_dataset, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(mini_dataset, data)
        lines = (data / "rss_raw.csv").read_text().splitlines()
        (data / "rss_raw.csv").write_text("\n".join(lines[:2]) + "\n")
        assert main(["detect", "--dataset", str(data), "--out", str(tmp_path / "det")]) == 0


    @pytest.mark.parametrize("key,value", [
        ("imu", None), ("vehicle_z_range", None), ("detection", None), ("gravity", None),
        ("imu", {"accel_noise_density": "0.01"}), ("imu", {"bias_corr_time": 0.0}),
        ("gravity", [0.0, -9.8]), ("planar", "yes"),
    ], ids=["no imu", "no vehicle_z_range", "no detection", "no gravity",
            "string noise density", "zero correlation time", "2-vector gravity",
            "string planar"])
    @pytest.mark.parametrize("command", ["detect", "estimate"])
    def test_bad_manifest_exit_2(self, mini_dataset, tmp_path, capsys, command, key, value):
        """A manifest key that is missing (None) or mistyped exits 2 before
        any output, naming the file and the key."""
        data = tmp_path / "data"
        shutil.copytree(mini_dataset, data)
        man = json.loads((data / "manifest.json").read_text())
        if value is None:
            del man[key]
        else:
            man[key] = man[key] | value if isinstance(value, dict) else value
        (data / "manifest.json").write_text(json.dumps(man))
        out = tmp_path / "out"
        for mode in ("tc", "lc") if command == "estimate" else (None,):
            argv = [command, "--dataset", str(data), "--out", str(out)]
            assert main(argv + (["--mode", mode] if mode else [])) == 2
            err = capsys.readouterr().err
            assert "manifest.json: " in err and (key in err or "ImuSpec" in err)
            assert not out.exists()


class TestEpochSamples:
    def test_led_without_raw_stream_stays_los(self, mini_dataset):
        ds = load_dataset(mini_dataset)
        flags, tags = run_detection(ds)
        ds.raw = ds.raw[ds.raw[:, 1] != 2]
        flags_cut, tags_cut = run_detection(ds)
        led2 = ds.epoch_samples["led_id"] == 2
        assert led2.any() and np.all(flags_cut[led2] == SampleFlag.LOS)
        np.testing.assert_array_equal(flags_cut[~led2], flags[~led2])
        np.testing.assert_array_equal(tags_cut, tags[tags[:, 1] != 2])

    def test_epochs_out_of_time_order(self, mini_dataset, tmp_path):
        """Epoch blocks stored in reverse time order, each block's rows in
        file order, give the sorted file's trajectory to the byte."""
        data = tmp_path / "data"
        shutil.copytree(mini_dataset, data)
        header, *rows = (data / "rss_epoch.csv").read_text().splitlines()
        blocks = {}
        for row in rows:
            blocks.setdefault(row.split(",")[0], []).append(row)
        reordered = [row for t in reversed(list(blocks)) for row in blocks[t]]
        assert reordered != rows
        (data / "rss_epoch.csv").write_text("\n".join([header, *reordered]) + "\n")
        outs = [tmp_path / "sorted", tmp_path / "reordered"]
        for d, out in zip((mini_dataset, data), outs):
            assert main(["estimate", "--dataset", str(d), "--mode", "tc", "--out", str(out)]) == 0
        assert ((outs[0] / "trajectory.csv").read_bytes()
                == (outs[1] / "trajectory.csv").read_bytes())


@pytest.fixture(scope="module")
def tc_run(mini_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "tc"
    rc = main(["estimate", "--dataset", str(mini_dataset), "--mode", "tc",
               "--out", str(out)])
    assert rc == 0
    return out


class TestEstimate:
    def test_outputs_exist(self, tc_run):
        for name in ("trajectory.csv", "trajectory_smoothed.csv", "diagnostics.csv",
                     "report.json", "cdf.csv", "manifest.json", "drd_tags.csv"):
            assert (tc_run / name).exists()

    def test_diagnostics_count_reintegrations(self, tc_run):
        lines = (tc_run / "diagnostics.csv").read_text().splitlines()
        col = lines[0].split(",").index("reintegrations")
        assert col == 7
        # The mini run's biases stay far inside the first-order region.
        assert all(float(line.split(",")[col]) == 0 for line in lines[1:])

    def test_diagnostics_record_lm_stop(self, tc_run):
        lines = (tc_run / "diagnostics.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[8:10] == ["last_rho", "stop"]
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        # Every mini epoch converges on its model, its last trial point
        # accepted (rho > 0).
        assert np.all(rows[:, 9] == STOP_REASONS.index("model"))
        assert np.all(rows[:, 4] == 1) and np.all(rows[:, 8] > 0.0)

    def test_report_sane(self, tc_run):
        rep = json.loads((tc_run / "report.json").read_text())
        assert rep["mode"] == "tc"
        assert rep["mean_3d"] < 0.15
        assert rep["cdf"][-1][1] == 1.0
        assert rep["detection_recall"] != rep["detection_recall"] or rep["detection_recall"] >= 0

    def test_trajectory_schema(self, tc_run):
        arr = np.loadtxt(tc_run / "trajectory.csv", delimiter=",", skiprows=1)
        assert arr.shape[1] == 20
        header = (tc_run / "trajectory.csv").read_text().splitlines()[0]
        assert header.startswith("timestamp_s,px,py,pz,vx,vy,vz,qw")

    def test_lc_and_vlp_modes_run(self, mini_dataset, tmp_path):
        for mode in ("lc", "vlp_only"):
            out = tmp_path / mode
            rc = main(["estimate", "--dataset", str(mini_dataset), "--mode", mode,
                       "--out", str(out)])
            assert rc == 0
            rep = json.loads((out / "report.json").read_text())
            assert rep["mode"] == mode
            assert np.isfinite(rep["mean_3d"])

    def test_no_drd_flag(self, mini_dataset, tmp_path):
        out = tmp_path / "nodrd"
        rc = main(["estimate", "--dataset", str(mini_dataset), "--mode", "tc",
                   "--no-drd", "--out", str(out)])
        assert rc == 0
        assert not (out / "drd_tags.csv").exists()

    def test_missing_dataset_exit_2(self, tmp_path):
        assert main(["estimate", "--dataset", str(tmp_path / "void"), "--mode", "tc",
                     "--out", str(tmp_path / "o")]) == 2

    def test_bad_mode_usage_error(self, mini_dataset, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["estimate", "--dataset", str(mini_dataset), "--mode", "bogus",
                  "--out", str(tmp_path / "o")])
        assert e.value.code == 2

    def test_config_file_window_override(self, mini_dataset, tmp_path):
        """No config file sets the window: ``--config`` is a usage error,
        and ``--window`` sets it."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window_size": 5}))
        argv = ["estimate", "--dataset", str(mini_dataset), "--mode", "tc"]
        with pytest.raises(SystemExit) as e:
            main(argv + ["--config", str(cfg), "--out", str(tmp_path / "cfg")])
        assert e.value.code == 2
        assert not (tmp_path / "cfg").exists()
        out = tmp_path / "w5"
        assert main(argv + ["--window", "5", "--out", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["config"]["window_size"] == 5

    @pytest.mark.parametrize("content", [
        '{"windowsize": 5}', '{"use_nhc": false}', "[5]", '{"lm": 5}',
        '{"window_size": "5"}', "{bad", '{"window_size": 1}',
        # The method's tuning values are estimator constants, not settings.
        '{"lm": {"max_iterations": 20}}', '{"prior": {"heading": 0.01}}',
        '{"blocked_variance": 50.0}', '{"unknown_led_prior_sigma": 5.0}',
        '{"constraints": {"nhc_sigma": 0.1}}', '{"constraints": {"height_sigma": 0.02}}',
        # The NHC is part of the method, and the height switch is flat.
        '{"constraints": {"use_height": true}}', '{"use_nhc": true}',
        pytest.param(["--window", "1"], id="window 1"),
        pytest.param(["--unknown-leds", "5,x"], id="unknown LED not an id"),
        pytest.param(["--unknown-leds", "5,5"], id="repeated unknown LED"),
        pytest.param('{"unknown_led_ids": [5, 5]}', id="config repeated unknown LED"),
        *(pytest.param(["--unknown-leds", "5", "--led-init", v], id=f"led_init {v}")
          for v in ("5=2.0", "7=2.0,1.0", "5=2.0,1.0,0.5", "5", "x=1,2", "5=a,b", "5=nan,1")),
        pytest.param(["--led-init", "5=2.0,1.0"], id="led_init without unknown LEDs"),
        pytest.param(["--unknown-leds", "7"], id="unknown LED off the map"),
        pytest.param('{"unknown_led_ids": [7]}', id="config unknown LED off the map"),
        *(pytest.param(["--mode", mode] + extra, id=f"{mode} {' '.join(extra)}")
          for mode in ("lc", "vlp_only")
          for extra in (["--unknown-leds", "5"], ["--unknown-leds", "5", "--led-init", "5=1,1"])),
        pytest.param(('{"unknown_led_ids": [5]}', ["--mode", "lc"]), id="lc config unknown LED"),
    ])
    def test_bad_config_exit_2(self, mini_dataset, tmp_path, content):
        """Bad run options (a list) exit 2 before any output.  So does a
        ``--config`` file (text, alone or with options in a pair), whatever
        it holds: it is a usage error, since the dataset and the options
        set every estimator setting."""
        out = tmp_path / "bad"
        argv = ["estimate", "--dataset", str(mini_dataset), "--mode", "tc", "--out", str(out)]
        text, extra = ((None, content) if isinstance(content, list)
                       else content if isinstance(content, tuple) else (content, []))
        if text is not None:
            (tmp_path / "cfg.json").write_text(text)
            argv += ["--config", str(tmp_path / "cfg.json")]
        argv += extra
        try:
            code = main(argv)
        except SystemExit as e:  # argparse's usage error
            code = e.code
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("extra,window", [
        ([], 20), (["--unknown-leds", "5"], 50),
        (["--unknown-leds", "5", "--window", "25"], 25), (["--window", "25"], 25),
    ], ids=["default", "unknown LEDs", "unknown LEDs and --window", "--window"])
    def test_window_defaults(self, mini_dataset, tmp_path, extra, window):
        """--window, else 50 states with unknown LEDs, else 20."""
        argv = ["estimate", "--dataset", str(mini_dataset), "--out", str(tmp_path)] + extra
        cfg = _estimator_config(build_parser().parse_args(argv), load_dataset(mini_dataset))
        assert cfg.window_size == window

    def test_manifest_config_reproduces_run(self, mini_dataset, tmp_path):
        """A rerun with the ``--window`` of the run manifest's ``config``
        repeats the run and its config."""
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["estimate", "--dataset", str(mini_dataset), "--mode", "tc",
                     "--window", "10", "--out", str(first)]) == 0
        config = json.loads((first / "manifest.json").read_text())["config"]
        # mini is not planar: the dataset leaves the height constraint off.
        assert config["window_size"] == 10 and config["use_height"] is False
        assert main(["estimate", "--dataset", str(mini_dataset), "--mode", "tc",
                     "--window", str(config["window_size"]), "--out", str(second)]) == 0
        assert json.loads((second / "manifest.json").read_text())["config"] == config
        assert ((first / "trajectory.csv").read_bytes()
                == (second / "trajectory.csv").read_bytes())
        reports = []
        for out in (first, second):
            rep = json.loads((out / "report.json").read_text())
            del rep["runtime_s"]
            reports.append(json.dumps(rep, sort_keys=True))
        assert reports[0] == reports[1]

    def test_manifest_led_init_reproduces_run(self, mini_dataset, tmp_path):
        """An unknown-LED run from a non-default guess repeats from its manifest."""
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["estimate", "--dataset", str(mini_dataset), "--mode", "tc",
                     "--unknown-leds", "5", "--led-init", "5=2.3,2.6", "--out", str(first)]) == 0
        man = json.loads((first / "manifest.json").read_text())
        assert man["led_init"] == "5=2.3,2.6"
        assert man["vlp_variant"] is None
        config = man["config"]
        assert main(["estimate", "--dataset", man["dataset"], "--mode", man["mode"],
                     "--window", str(config["window_size"]),
                     "--unknown-leds", ",".join(map(str, config["unknown_led_ids"])),
                     "--led-init", man["led_init"], "--out", str(second)]) == 0
        assert ((first / "trajectory.csv").read_bytes()
                == (second / "trajectory.csv").read_bytes())

    def test_manifest_records_resolved_vlp_variant(self, mini_dataset, tmp_path):
        default = "tilt" if load_dataset(mini_dataset).planar else "level"
        cases = (([], default), (["--vlp-variant", "tilt"], "tilt"),
                 (["--vlp-variant", "level"], "level"))
        for i, (extra, variant) in enumerate(cases):
            out = tmp_path / f"run{i}"
            assert main(["estimate", "--dataset", str(mini_dataset), "--mode", "vlp_only",
                         "--no-drd", "--out", str(out)] + extra) == 0
            man = json.loads((out / "manifest.json").read_text())
            assert man["vlp_variant"] == variant
            assert man["led_init"] is None

    def test_manifest_records_blas_threads_and_numpy(self, mini_dataset, tmp_path,
                                                      monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "threads"
        assert main(["estimate", "--dataset", str(mini_dataset), "--mode", "lc",
                     "--no-drd", "--out", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert set(man["blas_threads"]) == set(BLAS_THREAD_VARS)
        assert man["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
        assert man["blas_threads"]["MKL_NUM_THREADS"] is None
        assert man["numpy"] == np.__version__


class TestProvenance:
    """The run manifest's ``dataset_sha256`` hashes the bytes that
    ``load_dataset`` reads, and ``dataset_edited_files`` names each data
    file that differs from the dataset manifest's ``file_sha256``."""

    EDITS = {
        "power": ("leds.json", lambda leds: [r | {"power": 1.05 * r["power"]} for r in leds]),
        "order": ("leds.json", lambda leds: [r | {"order": r["order"] + 0.1} for r in leds]),
        "imu": ("manifest.json", lambda m: m | {"imu": m["imu"] | {
            "accel_noise_density": 2.0 * m["imu"]["accel_noise_density"]}}),
    }

    def test_edits_give_distinct_hashes(self, mini_dataset, tmp_path):
        paths = {"original": mini_dataset}
        for case, (name, edit) in self.EDITS.items():
            paths[case] = data = tmp_path / case
            shutil.copytree(mini_dataset, data)
            (data / name).write_text(json.dumps(edit(json.loads((data / name).read_text()))))
        datasets = {case: load_dataset(data) for case, data in paths.items()}
        assert len({ds.sha256 for ds in datasets.values()}) == len(datasets)
        assert {case: ds.edited_files for case, ds in datasets.items()} == {
            "original": (), "power": ("leds.json",), "order": ("leds.json",), "imu": ()}
        # The sha256sum listing of the files read, by name.
        names = ("imu.csv", "leds.json", "manifest.json", "rss_epoch.csv", "rss_raw.csv",
                 "truth.csv")
        listing = "".join(f"{digest}  {name}\n"
                          for name, digest in sha_files(paths["power"], names).items())
        assert datasets["power"].sha256 == hashlib.sha256(listing.encode()).hexdigest()

    def test_edited_dataset_runs(self, mini_dataset, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(mini_dataset, data)
        name, edit = self.EDITS["power"]
        (data / name).write_text(json.dumps(edit(json.loads((data / name).read_text()))))
        out = tmp_path / "lc"
        assert main(["estimate", "--dataset", str(data), "--mode", "lc", "--out", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["dataset_sha256"] == load_dataset(data).sha256
        assert man["dataset_edited_files"] == ["leds.json"]


class TestRunTc:
    UNKNOWN = 5

    def run(self, mini_dataset):
        ds = load_dataset(mini_dataset)
        config = estimator_config(ds, 20, (self.UNKNOWN,))
        return run_tc(ds, config, np.full(len(ds.epoch_samples), SampleFlag.LOS),
                      unknown_init={self.UNKNOWN: np.array([2.3, 2.6])})

    def test_returns_last_report_and_led_kept(self, mini_dataset):
        est, leds, report = self.run(mini_dataset)
        assert isinstance(report, LmReport) and report.converged
        assert report.final_cost == est.diagnostics[-1].cost
        assert not leds[self.UNKNOWN].diverged

    def test_preintegrates_each_epoch_interval(self, mini_dataset, monkeypatch):
        # Epoch k's IMU stream holds the samples in [t_{k-1}, t_k), found
        # by one search over the run.
        streams = []
        original = vlpnav.cli.preintegrate

        def recorded(stream, *args, **kwargs):
            streams.append((stream, kwargs["t_end"]))
            return original(stream, *args, **kwargs)

        monkeypatch.setattr(vlpnav.cli, "preintegrate", recorded)
        ds = load_dataset(mini_dataset)
        est = run_tc(ds, estimator_config(ds), np.full(len(ds.epoch_samples), SampleFlag.LOS))[0]
        times = np.unique(ds.epoch_samples["timestamp"])
        assert [t for _, t in streams] == times[1:].tolist() == est.causal.timestamps[1:].tolist()
        t = ds.imu.timestamps
        for (stream, t_end), t_start in zip(streams, times):
            keep = (t >= t_start) & (t < t_end)
            for name in ("timestamps", "accel", "gyro"):
                np.testing.assert_array_equal(getattr(stream, name), getattr(ds.imu, name)[keep])

    def test_builds_the_led_table_once(self, mini_dataset, monkeypatch):
        # The first fix and the window both read the dataset's table.
        calls = []
        of = LedTable.of

        def counted(leds, rx):
            calls.append(len(leds))
            return of(leds, rx)

        monkeypatch.setattr(LedTable, "of", counted)
        ds = load_dataset(mini_dataset)
        est = run_tc(ds, estimator_config(ds),
                     np.full(len(ds.epoch_samples), SampleFlag.LOS))[0]
        assert calls == [len(ds.leds)]
        assert est.window.led_table is ds.led_table

    def test_diverging_report_flags_led(self, mini_dataset, monkeypatch):
        """A last solve that stops unconverged with growing LED steps
        flags the LED, through the report ``run_tc`` passes on."""
        step = TightlyCoupledEstimator.step
        diverging = LmReport(converged=False, iterations=[
            LmIteration(1.0, 0.0, 0.1, True, led_step) for led_step in (0.01, 0.02, 0.04)])

        def last_step_diverges(self, pre, rss, timestamp):
            step(self, pre, rss, timestamp)
            return diverging

        monkeypatch.setattr(TightlyCoupledEstimator, "step", last_step_diverges)
        _, leds, report = self.run(mini_dataset)
        assert report is diverging
        assert leds[self.UNKNOWN].diverged


class TestEvaluate:
    def test_truth_vs_truth_is_zero(self, mini_dataset, tmp_path):
        # A trajectory file built from the truth itself: all errors zero.
        truth = np.loadtxt(mini_dataset / "truth.csv", delimiter=",", skiprows=1)
        sub = truth[::200]
        timestamps = sub[:, 0]
        rows = np.column_stack([timestamps, sub[:, 1:7], sub[:, 7:11], sub[:, 11:14],
                                np.zeros((len(sub), 6))])
        traj = tmp_path / "traj.csv"
        np.savetxt(traj, rows, fmt="%.12g", delimiter=",",
                   header="timestamp_s,px,py,pz,vx,vy,vz,qw,qx,qy,qz,roll,pitch,yaw,"
                          "bax,bay,baz,bgx,bgy,bgz", comments="")
        out = tmp_path / "eval"
        rc = main(["evaluate", "--trajectory", str(traj),
                   "--truth", str(mini_dataset / "truth.csv"), "--out", str(out)])
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["mean_3d"] == 0.0
        assert rep["cdf"][0] == [0.0, pytest.approx(1.0 / rep["n_epochs"])]

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["evaluate", "--trajectory", str(tmp_path / "a.csv"),
                     "--truth", str(tmp_path / "b.csv"), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("which", ["trajectory", "truth"])
    @pytest.mark.parametrize("text", [
        "t,a,b,c,d\n0,1,2,3,4\n1,1,2,3,4\n", "t\n0\n1\n", TRAJ_HEADER + "\n",
        TRAJ_HEADER + "\n" + ",".join(["0.5"] * 19 + ["x"]) + "\n",
    ], ids=["5 columns", "1 column", "header only", "non-numeric"])
    def test_malformed_file_exit_2(self, mini_dataset, tmp_path, which, text):
        files = {"trajectory": mini_dataset / "truth.csv", "truth": mini_dataset / "truth.csv"}
        files[which] = tmp_path / "bad.csv"
        files[which].write_text(text)
        out = tmp_path / "eval"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["evaluate", "--trajectory", str(files["trajectory"]),
                         "--truth", str(files["truth"]), "--out", str(out)]) == 2
        assert not out.exists()
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("which", ["trajectory", "truth"])
    def test_non_unit_quaternion_exit_2(self, mini_dataset, tmp_path, capsys, which):
        files = {"trajectory": mini_dataset / "truth.csv", "truth": mini_dataset / "truth.csv"}
        lines = files[which].read_text().splitlines()
        row = lines[5].split(",")
        row[7] = "2"  # qw
        lines[5] = ",".join(row)
        files[which] = tmp_path / "bad.csv"
        files[which].write_text("\n".join(lines) + "\n")
        out = tmp_path / "eval"
        assert main(["evaluate", "--trajectory", str(files["trajectory"]),
                     "--truth", str(files["truth"]), "--out", str(out)]) == 2
        assert "bad.csv: a quaternion's norm deviates" in capsys.readouterr().err
        assert not out.exists()

    def test_non_unit_truth_quaternion_dataset_exit_2(self, mini_dataset, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(mini_dataset, data)
        lines = (data / "truth.csv").read_text().splitlines()
        row = lines[5].split(",")
        row[7] = "2"
        lines[5] = ",".join(row)
        (data / "truth.csv").write_text("\n".join(lines) + "\n")
        assert main(["estimate", "--dataset", str(data), "--out", str(tmp_path / "out")]) == 2

    def test_disjoint_ranges_exit_2(self, mini_dataset, tmp_path):
        truth = np.loadtxt(mini_dataset / "truth.csv", delimiter=",", skiprows=1)
        rows = truth[:5].copy()
        rows[:, 0] += 1e6
        traj = tmp_path / "traj.csv"
        np.savetxt(traj, np.column_stack([rows[:, :14], np.zeros((5, 6))]),
                   fmt="%.12g", delimiter=",", header="t", comments="")
        assert main(["evaluate", "--trajectory", str(traj),
                     "--truth", str(mini_dataset / "truth.csv"),
                     "--out", str(tmp_path / "e")]) == 2
