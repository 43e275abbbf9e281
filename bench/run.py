#!/usr/bin/env python3
"""Benchmark of the vlpnav pipeline: simulate, detect, estimate, evaluate.

    python3 bench/run.py --workload tc-sim3d --seed 1 --seconds 10 --trace 0

Each run simulates its inputs with vlpnav's own simulator, runs them
through ``vlpnav estimate`` (``cli.main``) in this process, checks every
output with code of its own (``checks.py``) and prints one JSON object as
the last line of stdout: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` gives the end-to-end metrics, ``--trace 1``
the per-layer ones (``tracing.py``).  Scratch files go to ``.bench_out/``
at the repository root.  bench/README.md lists workloads and metrics.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: with the default thread
# pool a TC run's wall time and even its last digits vary from run to run.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
#: Distance (m) of the unknown LED's initial planar guess from the truth.
LED_GUESS_M = 0.5
#: Clock of every reported time but the traced spans: CPU time of this
#: single-threaded process, which leaves out the time the host gives
#: this machine's CPUs to other guests.
CLOCK = time.process_time


@dataclass(frozen=True)
class Workload:
    scenario: str  # simulator fixture
    reference_seed: int  # fixed realization the error metrics are read on
    # `vlpnav estimate` arguments, one operation each.  The first is the
    # workload's own estimator: its epoch latency and errors are reported.
    estimates: tuple
    # With an unknown LED the seed draws the direction of its initial guess
    # and the reference is the only realization; otherwise the seed draws a
    # second realization's noise.
    unknown_led: int | None = None

    def realizations(self, seed: int) -> list:
        out = [("reference", self.reference_seed)]
        return out if self.unknown_led is not None else out + [("seed", seed)]


WORKLOADS = {
    "tc-sim3d": Workload("sim3d", 7, (("--mode", "tc"),)),
    "tc-unknown-led-w50": Workload(
        "sim3d", 7, (("--mode", "tc", "--unknown-leds", "5", "--window", "50"),),
        unknown_led=5),
    "baselines-expA": Workload(
        "expA", 11, (("--mode", "lc"), ("--mode", "vlp_only", "--vlp-variant", "tilt"))),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "epoch_ms_p50": "ms",
    "epoch_ms_p85": "ms",
    "peak_rss_mb": "MB",
    "err3d_mean_m": "m",
    "incl_mean_deg": "deg",
}


@dataclass
class Realization:
    """One simulated dataset of a run's inputs."""

    label: str
    seed: int
    scenario: object
    path: Path
    n_epochs: int = 0
    errors: dict = field(default_factory=dict)  # mode -> (err3d, incl)
    epoch_ms: list = field(default_factory=list)  # per-epoch latency, all rounds
    pass_s: list = field(default_factory=list)  # time of its operations per pass
    pass_wall_s: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)  # mode -> trajectory sha256


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    messages: list = field(default_factory=list)

    def record(self, what: str, crashed: bool, fails: list) -> None:
        self.attempted += 1
        if crashed or fails:
            self.failed += 1
            self.wrong += 0 if crashed else 1
            self.messages.extend(f"{what}: {m}" for m in fails)


def import_vlpnav():
    sys.path.insert(0, str(ROOT / "src"))
    import vlpnav
    from vlpnav import cli, dataio, simulator

    if not Path(vlpnav.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"vlpnav imported from {vlpnav.__file__}, not {ROOT / 'src'}")
    return cli, dataio, simulator


def host_conditions() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def build_realization(vlpnav, wl: Workload, label: str, seed: int, base: Path):
    """Simulate, write and load one dataset and build its detector."""
    cli, dataio, simulator = vlpnav
    sc = simulator.reference_scenarios(seed=seed)[wl.scenario]
    truth = simulator.generate_trajectory(sc)
    imu = simulator.synthesize_imu(truth, sc)
    raw, epoch = simulator.synthesize_rss(truth, sc)
    path = base / label
    dataio.write_dataset(path, sc, truth, imu, raw, epoch)
    cli.build_detector(dataio.load_dataset(path))
    return Realization(label, seed, sc, path)


def estimate_args(wl: Workload, args: tuple, real: Realization, seed: int) -> list:
    args = list(args)
    if wl.unknown_led is not None:
        import numpy as np

        led = next(led for led in real.scenario.leds if led.led_id == wl.unknown_led)
        angle = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi)
        x, y = (float(v) for v in
                led.position[:2] + LED_GUESS_M * np.array([np.cos(angle), np.sin(angle)]))
        args += ["--led-init", f"{wl.unknown_led}={x!r},{y!r}"]
    return args


def check_outputs(wl, real, mode, out_dir, probes, checks) -> list:
    # VLP-only drops an epoch whose fix fails before any fix succeeded (expA
    # seed 504 loses its first), so it is held to at most one row per epoch.
    fails = checks.check_trajectory(out_dir / "trajectory.csv", real.n_epochs,
                                    every_epoch=mode != "vlp_only")
    if mode == "tc":
        fails += checks.check_trajectory(out_dir / "trajectory_smoothed.csv", real.n_epochs)
    traj = checks.read_csv(out_dir / "trajectory.csv")
    err3d, incl = checks.trajectory_errors(traj, checks.read_csv(real.path / "truth.csv"))
    report = json.loads((out_dir / "report.json").read_text())
    fails += checks.check_report(report, err3d, incl)
    schedule = {}
    for led_id, a, b in real.scenario.blockages:
        schedule.setdefault(led_id, []).append((a, b))
    fails += checks.check_drd(out_dir / "drd_tags.csv", schedule,
                              [led.led_id for led in real.scenario.leds])
    if mode == "tc":
        fails += checks.check_tc_accuracy(err3d, incl)
    if mode == "tc" and wl.unknown_led is not None:
        led = next(led for led in real.scenario.leds if led.led_id == wl.unknown_led)
        fails += checks.check_led(report, probes.led_estimates.get(led.led_id),
                                  led.led_id, led.position[:2])
    if mode == "vlp_only" and "lc" in real.errors:
        lc, vlp = real.errors["lc"][0], err3d
        if not lc <= vlp:
            fails.append(f"LC error {lc:.4f} m > VLP-only {vlp:.4f} m")
    digest = hashlib.sha256((out_dir / "trajectory.csv").read_bytes()).hexdigest()
    if real.digests.setdefault(mode, digest) != digest:
        fails.append("trajectory.csv differs from the first round's")
    real.errors.setdefault(mode, (err3d, incl))
    return fails


def run_pass(cli, wl, seed, reals, base, tally, tracer=None) -> float:
    """Every operation of the workload once; returns their summed CPU time."""
    import checks
    from tracing import Probes

    for real in reals:
        real.pass_s.append(0.0)
        real.pass_wall_s.append(0.0)
        for args in wl.estimates:
            mode = args[1]
            out_dir = base / "ops" / f"{real.label}-{mode}"
            shutil.rmtree(out_dir, ignore_errors=True)
            argv = ["estimate", "--dataset", str(real.path),
                    *estimate_args(wl, args, real, seed), "--out", str(out_dir)]
            probes = Probes(CLOCK)
            if mode == "tc":
                probes.install_tc()
            elif mode == "lc":
                probes.install_lc()
            if tracer is not None:
                tracer.op += 1
            err = io.StringIO()
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    w0, t0 = time.perf_counter(), CLOCK()
                    code = cli.main(argv)
                    real.pass_s[-1] += CLOCK() - t0
                    real.pass_wall_s[-1] += time.perf_counter() - w0
            finally:
                probes.restore()
            what = f"{real.label} seed {real.seed} {mode}"
            if code != 0:
                tally.record(what, True, [f"exit code {code}: {err.getvalue().strip()}"])
                continue
            if args is wl.estimates[0]:
                real.epoch_ms.extend(1e3 * s for s in probes.epoch_s)
            tally.record(what, False, check_outputs(wl, real, mode, out_dir, probes, checks))
    return sum(real.pass_s[-1] for real in reals)


def count_epochs(real: Realization) -> None:
    import checks
    import numpy as np

    real.n_epochs = int(np.unique(checks.read_csv(real.path / "rss_epoch.csv")[:, 0]).size)


def timed_run(vlpnav, wl, seed, seconds, base, tally, import_s) -> tuple[dict, dict]:
    import numpy as np

    cli = vlpnav[0]
    # Three builds of equal work (the simulator's work does not depend on
    # the seed): each realization, then the last one again as needed.
    # setup_s takes their median.
    labels = wl.realizations(seed)
    setup, built = [], {}
    for label, s in labels + labels[-1:] * (3 - len(labels)):
        t0 = CLOCK()
        built[label] = build_realization(vlpnav, wl, label, s, base / "inputs")
        setup.append(CLOCK() - t0)
    reals = list(built.values())
    for real in reals:
        count_epochs(real)

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_pass(cli, wl, seed, reals, base, tally))

    def percentiles(ms):
        return [float(x) for x in np.percentile(ms, [50, 85])] if ms else [math.nan] * 2

    detail = {"setup_s": setup}
    for real in reals:
        detail[real.label] = {"seed": real.seed, "pass_s": real.pass_s,
                              "pass_wall_s": real.pass_wall_s,
                              "epoch_ms_p50_p85": percentiles(real.epoch_ms)}
    # The errors are read on the reference realization: over seeds the
    # noise draw moves them more than any bound allows.
    ref_err = reals[0].errors.get(wl.estimates[0][1], (math.nan, math.nan))
    p50, p85 = percentiles([ms for real in reals for ms in real.epoch_ms])
    values = {
        "setup_s": import_s + statistics.median(setup),
        "run_s": statistics.median(rounds),
        "epoch_ms_p50": p50,
        "epoch_ms_p85": p85,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "err3d_mean_m": ref_err[0],
        "incl_mean_deg": ref_err[1],
    }
    return values, detail


def traced_run(vlpnav, wl, workload, seed, seconds, base, tally) -> tuple[dict, dict]:
    from tracing import Tracer

    cli = vlpnav[0]
    label, s = wl.realizations(seed)[-1]
    tracer = Tracer()
    tracer.install()
    try:
        reals = [build_realization(vlpnav, wl, label, s, base / "inputs")]
    finally:
        tracer.restore()
    count_epochs(reals[0])

    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run_pass(cli, wl, seed, reals, base, tally))
        tracer.install()
        try:
            traced.append(run_pass(cli, wl, seed, reals, base, tally, tracer))
        finally:
            tracer.restore()
    if tracer.absent:
        print("trace: absent targets: " + ", ".join(tracer.absent))
    tracer.write(OUT / "traces" / f"{workload}-seed{seed}.csv.gz")
    overhead = statistics.median(traced) - statistics.median(plain)
    detail = {"untraced_pass_s": plain, "traced_pass_s": traced, "absent": tracer.absent}
    return tracer.layer_metrics(len(traced), overhead), detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    vlpnav = import_vlpnav()
    import_s = CLOCK()  # CPU time since the process started
    from tracing import LAYER_UNITS

    wl = WORKLOADS[args.workload]
    base = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tally = Tally()
    try:
        if args.trace:
            values, detail = traced_run(vlpnav, wl, args.workload, args.seed, args.seconds,
                                        base, tally)
            units = LAYER_UNITS
        else:
            values, detail = timed_run(vlpnav, wl, args.seed, args.seconds, base, tally,
                                       import_s)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(base, ignore_errors=True)

    conditions = host_conditions()
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        # A metric that could not be measured (an operation crashed) is null.
        "metrics": {k: {"value": values[k] if math.isfinite(values[k]) else None, "unit": u}
                    for k, u in units.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "conditions": conditions,
              "failures": tally.messages, "detail": detail, **result}
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2))
    for msg in tally.messages:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps({"conditions": conditions}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
