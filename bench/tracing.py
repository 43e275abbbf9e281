"""Timing wrappers around vlpnav's functions, for the benchmark's runs.

Two users share the patching code here:

* ``Probes`` (timed runs): a few light wrappers that give per-epoch
  latency and capture the unknown-LED estimate for the checks.
* ``Tracer`` (traced runs): a span around every function in ``TARGETS``,
  installed in every ``vlpnav`` module that imports the function by name.
  A target that no longer exists is reported as absent.  Spans are kept
  in memory and written out once the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np


class Patches:
    """Replaces attributes with wrappers and puts the originals back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, path: str, make_wrapper) -> bool:
        """Wrap ``module:attr`` or ``module:Class.attr``; False when absent.

        A module-level function is replaced in its own module and in every
        loaded ``vlpnav`` module that holds the same object under the same
        name (``from .channel import predict_rss``).
        """
        module_name, _, qualname = path.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return False
        *parents, attr = qualname.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
            if owner is None:
                return False
        original = getattr(owner, attr, None)
        if not callable(original):
            return False
        wrapper = functools.wraps(original)(make_wrapper(original))
        owners = [owner]
        if not parents:
            owners += [m for n, m in list(sys.modules.items())
                       if (n == "vlpnav" or n.startswith("vlpnav.")) and m is not owner
                       and getattr(m, attr, None) is original]
        for o in owners:
            self._saved.append((o, attr, original))
            setattr(o, attr, wrapper)
        return True

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


# ---------------------------------------------------------------------------
# Timed runs


class Probes:
    """Per-epoch latency and the unknown-LED estimates of the timed runs.

    TC epoch latency is ``preintegrate`` plus ``TightlyCoupledEstimator.step``
    for each epoch after the first, as ``cli.run_tc`` calls them.  LC epoch
    latency is the time from one epoch's RSS fix to the next in
    ``run_loosely_coupled``: the IMU propagation, the Kalman update and the
    next ``solve_position_rss``.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.epoch_s: list[float] = []
        self.led_estimates: dict = {}
        self._patches = Patches()
        self._pending = 0.0

    def install_tc(self) -> None:
        def preint(fn):
            def wrapper(*args, **kwargs):
                t0 = self.clock()
                out = fn(*args, **kwargs)
                self._pending = self.clock() - t0
                return out
            return wrapper

        def step(fn):
            def wrapper(*args, **kwargs):
                t0 = self.clock()
                out = fn(*args, **kwargs)
                self.epoch_s.append(self._pending + self.clock() - t0)
                self._pending = 0.0
                return out
            return wrapper

        def leds(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.led_estimates = dict(out)
                return out
            return wrapper

        self._require("vlpnav.cli:preintegrate", preint)
        self._require("vlpnav.estimator:TightlyCoupledEstimator.step", step)
        self._require("vlpnav.estimator:estimate_unknown_leds", leds)

    def install_lc(self) -> None:
        """LC epoch latency: CPU time between consecutive epoch fixes."""
        last = []

        def fix(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                now = self.clock()
                if last:  # the first fix is the initial state's
                    self.epoch_s.append(now - last[-1])
                last.append(now)
                return out
            return wrapper

        self._require("vlpnav.baselines:solve_position_rss", fix)

    def _require(self, path, make_wrapper):
        if not self._patches.wrap(path, make_wrapper):
            raise RuntimeError(f"benchmark probe target {path} not found")

    def restore(self) -> None:
        self._patches.restore()


# ---------------------------------------------------------------------------
# Traced runs


def _count_lm(counts, result, args):
    its = getattr(result, "iterations", None) or []
    counts["lm_iterations"] = counts.get("lm_iterations", 0) + len(its)
    counts["lm_accepted"] = counts.get("lm_accepted", 0) + sum(
        1 for it in its if getattr(it, "accepted", False))


def _count_raw(counts, result, args):
    times = args[1] if len(args) > 1 else ()
    counts["raw_samples"] = counts.get("raw_samples", 0) + len(times)


#: (span name, target, hook on the return value).  Several targets may
#: share a span name; time is then counted once for nested spans.
TARGETS = (
    ("cli.main", "vlpnav.cli:main", None),
    ("cli.run_tc", "vlpnav.cli:run_tc", None),
    ("cli.write_outputs", "vlpnav.cli:_write_trajectory", None),
    ("cli.write_outputs", "numpy:savetxt", None),
    ("cli.write_outputs", "vlpnav.metrics:RunReport.save", None),
    ("cli.write_outputs", "vlpnav.metrics:save_cdf_csv", None),
    ("estimator.assemble_cost", "vlpnav.estimator:assemble_cost", None),
    ("estimator.solve_lm", "vlpnav.estimator:solve_lm", _count_lm),
    ("estimator.slide_and_marginalize", "vlpnav.estimator:slide_and_marginalize", None),
    ("estimator.estimate_unknown_leds", "vlpnav.estimator:estimate_unknown_leds", None),
    ("estimator.step", "vlpnav.estimator:TightlyCoupledEstimator.step", None),
    ("preint.preintegrate", "vlpnav.preint:preintegrate", None),
    ("channel.predict_rss", "vlpnav.channel:predict_rss", None),
    ("channel.rss_jacobian", "vlpnav.channel:rss_jacobian", None),
    ("blockage.detect", "vlpnav.blockage:DrdDetector.run", _count_raw),
    ("baselines.lc", "vlpnav.baselines:run_loosely_coupled", None),
    ("baselines.vlp_only", "vlpnav.baselines:vlp_only_trajectory", None),
    ("baselines.fix", "vlpnav.baselines:solve_position_rss", None),
    ("baselines.fix", "vlpnav.baselines:solve_pose_tilt", None),
    ("simulator.generate_trajectory", "vlpnav.simulator:generate_trajectory", None),
    ("dataio.write_dataset", "vlpnav.dataio:write_dataset", None),
    ("dataio.load_dataset", "vlpnav.dataio:load_dataset", None),
    ("metrics.evaluate_run", "vlpnav.metrics:evaluate_run", None),
)

#: Per-layer metric name -> unit, in output order.
LAYER_UNITS = {
    "estimator.assemble_calls": "count",
    "estimator.assemble_ms": "ms",
    "estimator.solve_self_ms": "ms",
    "estimator.lm_iterations": "count",
    "estimator.lm_accept_ratio": "ratio",
    "estimator.marginalize_ms": "ms",
    "estimator.unknown_leds_ms": "ms",
    "cli.run_tc_ms": "ms",
    "preint.calls": "count",
    "preint.preintegrate_ms": "ms",
    "channel.predict_rss_calls": "count",
    "channel.predict_rss_ms": "ms",
    "channel.rss_jacobian_calls": "count",
    "channel.rss_jacobian_ms": "ms",
    "blockage.detect_ms": "ms",
    "blockage.us_per_raw_sample": "us",
    "baselines.lc_ms": "ms",
    "baselines.vlp_only_ms": "ms",
    "baselines.fix_calls": "count",
    "simulator.trajectory_ms": "ms",
    "dataio.write_dataset_ms": "ms",
    "dataio.load_dataset_ms": "ms",
    "metrics.evaluate_ms": "ms",
    "cli.write_outputs_ms": "ms",
    "trace.absent_targets": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans around ``TARGETS``; ``op`` tags the spans of one operation."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op_of = array("i")
        self.t0 = array("q")
        self.t1 = array("q")
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches = Patches()

    def install(self) -> None:
        self.absent = []
        for span, path, hook in TARGETS:
            if not self._patches.wrap(path, functools.partial(self._wrapper, span, hook)):
                self.absent.append(path)

    def restore(self) -> None:
        self._patches.restore()

    def _wrapper(self, span, hook, fn):
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        name_id = self._name_ids[span]
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(self.t0)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op_of.append(self.op)
            self.t1.append(0)
            stack.append(idx)
            self.t0.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.t1[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counts, out, args)
            return out
        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as f:
            f.write("span,name,op,parent,start_ns,end_ns\n")
            for i in range(len(self.t0)):
                f.write(f"{i},{self.names[self.name[i]]},{self.op_of[i]},"
                        f"{self.parent[i]},{self.t0[i]},{self.t1[i]}\n")

    def layer_metrics(self, n_passes: int, overhead_s: float) -> dict[str, float]:
        """Per-layer totals: per traced pass, or over the traced set-up."""
        name = np.frombuffer(self.name, dtype=np.int32).astype(int)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur_ms = (np.frombuffer(self.t1, dtype=np.int64)
                  - np.frombuffer(self.t0, dtype=np.int64)) / 1e6
        in_op = np.frombuffer(self.op_of, dtype=np.int32) >= 0
        ids = {s: self._name_ids.get(s, -2) for s, _, _ in TARGETS}
        has_parent = parent >= 0
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        child_ms = np.zeros(name.size)
        np.add.at(child_ms, parent[has_parent], dur_ms[has_parent])
        # Only the outermost of nested same-name spans is counted.
        outer = parent_name != name

        def total(span, setup=False):
            sel = (name == ids[span]) & outer & (~in_op if setup else in_op)
            return float(dur_ms[sel].sum()), int(sel.sum())

        def per_pass(x):
            return x / max(n_passes, 1)

        assemble_ms, assemble_n = total("estimator.assemble_cost")
        solve = (name == ids["estimator.solve_lm"]) & in_op
        preint_ms, preint_n = total("preint.preintegrate")
        rss_ms, rss_n = total("channel.predict_rss")
        jac_ms, jac_n = total("channel.rss_jacobian")
        detect_ms, _ = total("blockage.detect")
        its = self.counts.get("lm_iterations", 0)
        raw = self.counts.get("raw_samples", 0)
        return {
            "estimator.assemble_calls": per_pass(assemble_n),
            "estimator.assemble_ms": per_pass(assemble_ms),
            "estimator.solve_self_ms": per_pass(float((dur_ms - child_ms)[solve].sum())),
            "estimator.lm_iterations": per_pass(its),
            "estimator.lm_accept_ratio": self.counts.get("lm_accepted", 0) / its if its else 0.0,
            "estimator.marginalize_ms": per_pass(total("estimator.slide_and_marginalize")[0]),
            "estimator.unknown_leds_ms": per_pass(total("estimator.estimate_unknown_leds")[0]),
            "cli.run_tc_ms": per_pass(total("cli.run_tc")[0]),
            "preint.calls": per_pass(preint_n),
            "preint.preintegrate_ms": per_pass(preint_ms),
            "channel.predict_rss_calls": per_pass(rss_n),
            "channel.predict_rss_ms": per_pass(rss_ms),
            "channel.rss_jacobian_calls": per_pass(jac_n),
            "channel.rss_jacobian_ms": per_pass(jac_ms),
            "blockage.detect_ms": per_pass(detect_ms),
            "blockage.us_per_raw_sample": 1e3 * detect_ms / raw if raw else 0.0,
            "baselines.lc_ms": per_pass(total("baselines.lc")[0]),
            "baselines.vlp_only_ms": per_pass(total("baselines.vlp_only")[0]),
            "baselines.fix_calls": per_pass(total("baselines.fix")[1]),
            "simulator.trajectory_ms": total("simulator.generate_trajectory", setup=True)[0],
            "dataio.write_dataset_ms": total("dataio.write_dataset", setup=True)[0],
            "dataio.load_dataset_ms": total("dataio.load_dataset", setup=True)[0],
            "metrics.evaluate_ms": per_pass(total("metrics.evaluate_run")[0]),
            "cli.write_outputs_ms": per_pass(total("cli.write_outputs")[0]),
            "trace.absent_targets": len(self.absent),
            "trace.overhead_s": overhead_s,
        }
