"""Command-line entry points: simulate, detect, estimate, evaluate.

Every command is reproducible from its output manifest (seed, resolved
configuration and input hashes).  Exit codes: 0 success, 2 usage or
input error, 3 internal failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .attitude import euler_from_quat
from .baselines import initial_state, run_loosely_coupled, vlp_only_trajectory
from .blockage import DrdDetector, annotate_epochs
from .channel import SampleFlag
from .dataio import Dataset, load_dataset, load_trajectory, write_csv, write_dataset
from .estimator import STOP_REASONS, EstimatorConfig, TightlyCoupledEstimator, estimate_unknown_leds
from .metrics import (
    DisjointTimeRangesError,
    detection_scores,
    evaluate_run,
    save_cdf_csv,
)
from .preint import ImuNoise, preintegrate
from .records import to_record
from .simulator import (
    Scenario,
    generate_trajectory,
    reference_scenarios,
    synthesize_imu,
    synthesize_rss,
)
from .state import StateArrays

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTERNAL = 3

#: Environment variables that set the BLAS/OpenMP thread count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

TRAJ_HEADER = ("timestamp_s,px,py,pz,vx,vy,vz,qw,qx,qy,qz,roll,pitch,yaw,"
               "bax,bay,baz,bgx,bgy,bgz")
TAGS_HEADER = "timestamp_s,led_id,tag,counter"


class InputError(RuntimeError):
    """User-facing input problem: bad path, schema or option."""


# ---------------------------------------------------------------------------
# simulate


def _resolve_scenario(spec: str, seed: int | None) -> Scenario:
    fixtures = reference_scenarios(seed=seed)
    if spec in fixtures:
        return fixtures[spec]
    path = Path(spec)
    if not path.exists():
        raise InputError(
            f"scenario '{spec}' is neither a fixture ({', '.join(sorted(fixtures))}) "
            "nor a file")
    try:
        scenario = Scenario.from_json(path)
    except ValueError as e:
        raise InputError(f"invalid scenario file {path}: {e}") from e
    if seed is not None:
        scenario = replace(scenario, seed=seed)
    return scenario


def cmd_simulate(args) -> int:
    scenario = _resolve_scenario(args.scenario, args.seed)
    truth = generate_trajectory(scenario)
    imu = synthesize_imu(truth, scenario)
    raw, epoch = synthesize_rss(truth, scenario)
    write_dataset(args.out, scenario, truth, imu, raw, epoch)
    n_epochs = np.unique(epoch["timestamp"]).size
    print(f"dataset '{scenario.name}' seed {scenario.seed}: "
          f"{truth.duration:.1f} s, {n_epochs} epochs -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# detection pipeline


def build_detector(dataset: Dataset) -> DrdDetector:
    """DRD over the vehicle's reachable box: the room box, its z range cut
    to the vehicle's heights widened by 0.1 m."""
    z_lo, z_hi = dataset.vehicle_z_range
    room_min, room_max = (bound.copy() for bound in dataset.room)
    room_min[2] = max(z_lo - 0.1, room_min[2])
    room_max[2] = min(z_hi + 0.1, room_max[2])
    return DrdDetector.for_scene(dataset.detection, dataset.leds, room_min, room_max)


def run_detection(dataset: Dataset):
    """DRD over the raw streams; returns epoch flags and tag CSV rows.

    The flags are one :class:`SampleFlag` code per row of
    ``dataset.epoch_samples``, derived causally from the raw tags
    (ground-truth labels are never consulted); the samples of an LED
    without a raw stream stay LOS.  The tag rows ``(timestamp, led_id,
    tag, counter)`` are sorted by time, then LED.
    """
    detector = build_detector(dataset)
    window = dataset.epoch_window_s
    raw = dataset.raw
    try:
        out = detector.run(raw[:, 0], raw[:, 1], raw[:, 2])
    except ValueError as e:
        raise InputError(f"rss_raw.csv in {dataset.path}: {e}") from e
    samples = dataset.epoch_samples
    flags = np.full(len(samples), SampleFlag.LOS)
    for led_id, (t, tags, _) in out.items():
        rows = samples["led_id"] == led_id
        flags[rows] = annotate_epochs(samples["timestamp"][rows], t, tags, window)
    tag_rows = np.vstack([np.column_stack([t, np.full(t.shape, led_id), tags, counters])
                          for led_id, (t, tags, counters) in out.items()])
    return flags, tag_rows[np.lexsort((tag_rows[:, 1], tag_rows[:, 0]))]


def _load_dataset(path) -> Dataset:
    try:
        return load_dataset(path)
    except ValueError as e:
        raise InputError(f"malformed dataset: {e}") from e


def cmd_detect(args) -> int:
    dataset = _load_dataset(args.dataset)
    flags, tag_rows = run_detection(dataset)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "drd_tags.csv", TAGS_HEADER, tag_rows)
    n_blocked = np.count_nonzero(flags != SampleFlag.LOS)
    print(f"detector: {n_blocked} flagged epoch samples of {len(flags)} "
          f"-> {out / 'drd_tags.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate


def _write_trajectory(path, traj: StateArrays):
    """Write ``traj`` as a trajectory file, the layout ``load_trajectory`` reads."""
    write_csv(path, TRAJ_HEADER,
              np.column_stack([traj.timestamps, traj.position, traj.velocity, traj.attitude,
                               euler_from_quat(traj.attitude), traj.bias_acc, traj.bias_gyro]))


def run_tc(dataset: Dataset, config, flags, unknown_init=None):
    """Tightly-coupled run over a dataset.

    Returns the estimator (states and diagnostics), the unknown-LED
    estimates and the last epoch's ``LmReport``.
    """
    epochs = dataset.epochs_by_time(flags)
    x0 = initial_state(dataset, epochs[0])
    est = TightlyCoupledEstimator(config, dataset.led_table, dataset.receiver, unknown_init)
    report = est.start(x0, epochs[0][1])
    t_prev = epochs[0][0]
    for t_k, samples in epochs[1:]:
        stream = dataset.imu.slice(t_prev, t_k)
        state_k = est.window.states[-1]
        pre = preintegrate(stream, state_k.bias_acc, state_k.bias_gyro,
                           dataset.receiver.dcm_body_to_vlp, config.imu_noise,
                           t_end=t_k)
        report = est.step(pre, samples, t_k)
        t_prev = t_k
    led_results = {}
    if config.unknown_led_ids:
        led_results = estimate_unknown_leds(est.window, report)
    est.finalize()
    return est, led_results, report


def cmd_estimate(args) -> int:
    dataset = _load_dataset(args.dataset)
    config = _estimator_config(args, dataset)
    unknown_init = _unknown_init(args, dataset, config)

    t_start = time.perf_counter()
    flags, tag_rows = ((np.full(len(dataset.epoch_samples), SampleFlag.LOS), None)
                       if args.no_drd else run_detection(dataset))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if tag_rows is not None:
        write_csv(out / "drd_tags.csv", TAGS_HEADER, tag_rows)

    mode = args.mode
    n_fix_failures = 0
    led_results = {}
    led_init = variant = None
    if mode == "tc":
        if unknown_init:
            # The resolved guesses, as a --led-init value that repeats them exactly.
            led_init = ";".join(f"{i}={float(x)!r},{float(y)!r}"
                                for i, (x, y) in sorted(unknown_init.items()))
        est, led_results, _ = run_tc(dataset, config, flags, unknown_init=unknown_init)
        traj = est.causal
        _write_trajectory(out / "trajectory_smoothed.csv", est.smoothed)
        diag_rows = []
        led_cols = sorted(config.unknown_led_ids)
        for d in est.diagnostics:
            row = [d.epoch_id, d.timestamp, d.cost, d.iterations, int(d.converged),
                   d.los_count, d.flagged_count, d.reintegrations, d.last_rho,
                   STOP_REASONS.index(d.stop)]
            row.extend(d.led_dop.get(i, float("nan")) for i in led_cols)
            diag_rows.append(row)
        header = ("epoch,timestamp_s,cost,iterations,converged,los_count,flagged_count,"
                  "reintegrations,last_rho,stop")
        header += "".join(f",dop_led{i}" for i in led_cols)
        write_csv(out / "diagnostics.csv", header, diag_rows)
    elif mode == "lc":
        traj = run_loosely_coupled(dataset, flags)
    elif mode == "vlp_only":
        variant = args.vlp_variant or ("tilt" if dataset.planar else "level")
        traj, n_fix_failures = vlp_only_trajectory(dataset, flags, variant=variant)
        if not len(traj):
            raise InputError("VLP-only produced no fixes; dataset unusable")
    else:
        raise InputError(f"unknown mode '{mode}'")
    _write_trajectory(out / "trajectory.csv", traj)
    runtime = time.perf_counter() - t_start

    report = None
    if dataset.truth is not None:
        report = evaluate_run(mode, traj.timestamps, traj.position, dataset.truth,
                              est_attitudes=traj.attitude, runtime_s=runtime,
                              n_fix_failures=n_fix_failures)
        if not args.no_drd:
            prec, rec = detection_scores(flags, dataset.epoch_samples["flag"])
            report.detection_precision = prec
            report.detection_recall = rec
        for led_id, res in led_results.items():
            true_led = next(led for led in dataset.leds if led.led_id == led_id)
            err = float("inf") if res.diverged else float(
                np.linalg.norm(res.xy - true_led.position[:2]))
            report.led_errors[led_id] = err
        report.save(out / "report.json")
        save_cdf_csv(out / "cdf.csv", report)
        print(f"{mode}: mean2d={report.mean_2d:.3f} m mean3d={report.mean_3d:.3f} m "
              f"incl={report.mean_inclination_deg:.3f} deg "
              f"heading={report.mean_heading_deg:.3f} deg ({runtime:.1f} s)")
    else:
        print(f"{mode}: no truth available; wrote trajectory only ({runtime:.1f} s)")

    run_manifest = {
        "command": "estimate",
        "mode": mode,
        "dataset": str(Path(args.dataset).resolve()),
        "dataset_sha256": dataset.sha256,
        "dataset_edited_files": list(dataset.edited_files),
        "config": to_record(config),
        "no_drd": bool(args.no_drd),
        "led_init": led_init,
        "vlp_variant": variant,
        "runtime_s": runtime,
        # BLAS threading changes the last digits of the outputs.
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "numpy": np.__version__,
    }
    (out / "manifest.json").write_text(json.dumps(run_manifest, indent=2))
    return EXIT_OK


def estimator_config(dataset: Dataset, window: int | None = None,
                     unknown_led_ids=()) -> EstimatorConfig:
    """The estimator's settings.  The dataset sets the IMU noise (each bias
    walk is the bias instability times ``sqrt(2 / bias_corr_time)``),
    gravity and, on planar datasets, the height constraint; the run sets
    the window (``window``, else 50 states with unknown LEDs and 20
    without) and the unknown LEDs.  Raises ``ValueError`` on a window under
    2 or a repeated LED."""
    spec = dataset.imu_spec
    walk = np.sqrt(2.0 / spec.bias_corr_time)
    return EstimatorConfig(
        imu_noise=ImuNoise(spec.accel_noise_density, spec.gyro_noise_density,
                           float(spec.accel_bias_instability * walk),
                           float(spec.gyro_bias_instability * walk)),
        window_size=window if window is not None else 50 if unknown_led_ids else 20,
        gravity=dataset.gravity, use_height=dataset.planar,
        unknown_led_ids=tuple(unknown_led_ids))


def _estimator_config(args, dataset: Dataset) -> EstimatorConfig:
    """The run's :func:`estimator_config`, from ``--window`` and
    ``--unknown-leds``; unknown LEDs must be on the map, and only ``--mode
    tc`` estimates them."""
    try:
        ids = [int(x) for x in args.unknown_leds.split(",")] if args.unknown_leds else ()
        config = estimator_config(dataset, args.window, ids)
    except ValueError as e:
        raise InputError(f"invalid estimator config: {e}") from e
    off_map = set(config.unknown_led_ids) - {led.led_id for led in dataset.leds}
    if off_map:
        raise InputError(f"unknown LEDs {sorted(off_map)} are not on the map")
    if args.mode != "tc" and (config.unknown_led_ids or args.led_init):
        raise InputError(f"--mode {args.mode} estimates no LEDs: unknown LEDs and "
                         "--led-init need --mode tc")
    return config


def _unknown_init(args, dataset: Dataset, config) -> dict:
    """Initial planar guesses of the unknown LEDs: the room center, with the
    ``--led-init`` entries (``id=x,y`` separated by ``;``) laid over it."""
    room_min, room_max = dataset.room
    center = 0.5 * (room_min[:2] + room_max[:2])
    init = {i: center.copy() for i in config.unknown_led_ids}
    for part in filter(None, (args.led_init or "").split(";")):
        key, _, val = part.partition("=")
        try:
            led_id, xy = int(key), np.array(val.split(","), dtype=float)
        except ValueError:
            xy = np.empty(0)
        if xy.shape != (2,) or not np.isfinite(xy).all():
            raise InputError(f"--led-init entry {part!r} is not 'id=x,y'")
        if led_id not in init:
            raise InputError(f"--led-init LED {led_id} is not one of --unknown-leds {sorted(init)}")
        init[led_id] = xy
    return init


# ---------------------------------------------------------------------------
# evaluate


def cmd_evaluate(args) -> int:
    traj_path = Path(args.trajectory)
    truth_path = Path(args.truth)
    if not traj_path.exists():
        raise InputError(f"trajectory file not found: {traj_path}")
    if not truth_path.exists():
        raise InputError(f"truth file not found: {truth_path}")
    try:
        traj, truth = load_trajectory(traj_path), load_trajectory(truth_path)
    except ValueError as e:
        raise InputError(f"malformed trajectory file: {e}") from e
    report = evaluate_run(args.mode, traj.timestamps, traj.position, truth,
                          est_attitudes=traj.attitude)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report.save(out / "report.json")
    save_cdf_csv(out / "cdf.csv", report)
    print(f"evaluated {len(traj)} epochs: mean2d={report.mean_2d:.4f} m "
          f"mean3d={report.mean_3d:.4f} m")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlpnav",
        description="Tightly-coupled VLP/INS navigation: simulate, detect, "
                    "estimate, evaluate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a dataset from a scenario")
    p_sim.add_argument("--scenario", required=True,
                       help="fixture name (sim3d, expA, ...) or scenario JSON path")
    p_sim.add_argument("--out", required=True, help="output dataset directory")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_det = sub.add_parser("detect", help="run blockage detection over a dataset")
    p_det.add_argument("--dataset", required=True)
    p_det.add_argument("--out", required=True)
    p_det.set_defaults(func=cmd_detect)

    p_est = sub.add_parser("estimate", help="estimate a trajectory from a dataset")
    p_est.add_argument("--dataset", required=True)
    p_est.add_argument("--mode", choices=("tc", "lc", "vlp_only"), default="tc")
    p_est.add_argument("--no-drd", action="store_true",
                       help="skip blockage detection (treat all samples as LOS)")
    p_est.add_argument("--window", type=int, default=None)
    p_est.add_argument("--unknown-leds", default=None,
                       help="comma-separated LED ids to estimate")
    p_est.add_argument("--led-init", default=None,
                       help="initial planar guesses, e.g. '3=1.0,2.5;5=2.0,2.0'")
    p_est.add_argument("--vlp-variant", choices=("level", "tilt"), default=None)
    p_est.add_argument("--out", required=True)
    p_est.set_defaults(func=cmd_estimate)

    p_eval = sub.add_parser("evaluate", help="score a trajectory against truth")
    p_eval.add_argument("--trajectory", required=True)
    p_eval.add_argument("--truth", required=True)
    p_eval.add_argument("--mode", default="unknown", help="label recorded in the report")
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, FileNotFoundError, DisjointTimeRangesError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:  # internal failure
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
