"""Sliding-window tightly-coupled VLP/INS graph optimizer.

A window of navigation states (one per VLP epoch) is connected by IMU
pre-integration factors and observed by per-LED RSS factors, optional
kinematic constraints (non-holonomic, height) and a Gaussian prior that
carries the information of states marginalized out of the window.  The
stacked nonlinear least-squares cost

    sum ||r_imu||^2_Sigma + sum ||r_rss||^2_sigma + sum ||r_c||^2 + prior

is minimized over the 15-dim error space of every state (plus 2-dim
planar blocks for LEDs with unknown positions) with Levenberg-Marquardt;
quaternions update through their minimal space.  Sliding folds the
oldest state into the prior by Schur complement at the current
linearization, so the prior always covers the window's oldest state and
then every unknown LED (:class:`MarginalPrior`).

:func:`normal_equations` is the one evaluation of the factors: a
stacked pass over the window in which every RSS sample (through the
batched Lambertian model), every IMU factor and the constraints of every
state become arrays of residuals, information and Jacobian blocks.  Each
factor touches one state, two adjacent states or a state and an unknown
LED, so the pass reduces them, with the prior, to a block-tridiagonal
Hessian over the states with a border of LED columns
(:class:`NormalEquations`), and sets the cost.  LM evaluates each trial
point once this way: the cost decides the step, and an accepted point's
equations give the next step, solved by block elimination (the states
first to last, then the LED block, then back-substitution) in time
linear in the window length.  The LED block's Schur complement gives
the unknown LEDs' covariance.  :func:`_marginalize_oldest` takes the
same pass over the factors of the oldest state, which spans the two
oldest states and the LEDs, and eliminates the oldest state from its
dense view; :func:`assemble_cost` is the dense view of the whole window.
:func:`vlp_residual` and :func:`vlp_jacobian_row` state the RSS factor
one sample at a time.

Flagged (blocked) RSS samples are not deleted: they enter with the large
``blocked_variance`` so the corrupted measurements carry negligible
weight.  Samples whose predicted geometry is outside the FOV,
degenerate (photodiode at the LED) or grazing are left out of both the
cost and the Hessian.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .attitude import quat_to_dcm, quat_to_dcm_batch, skew, skew_batch
from .channel import (
    LedBeacon,
    LedTable,
    ReceiverConfig,
    RssSample,
    SampleFlag,
    lambertian,
    predict_rss,
    rss_jacobian,
)
from .preint import (
    BIAS_CORRECTION_WARN_ACC,
    BIAS_CORRECTION_WARN_GYRO,
    ImuNoise,
    PreintegratedImu,
    PreintegratedStack,
    imu_residuals_batch,
    mechanize,
    preintegrate,
)
from .state import ERROR_DIM, NavState, StateArrays

logger = logging.getLogger(__name__)

__all__ = [
    "ConstraintConfig",
    "EstimatorConfig",
    "LmOptions",
    "LmReport",
    "MarginalPrior",
    "NormalEquations",
    "PriorConfig",
    "SlidingWindow",
    "TightlyCoupledEstimator",
    "assemble_cost",
    "dop",
    "estimate_unknown_leds",
    "normal_equations",
    "slide_and_marginalize",
    "solve_lm",
    "vlp_jacobian_row",
    "vlp_residual",
    "NavState",
]


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class LmOptions:
    """Levenberg-Marquardt controls."""

    max_iterations: int = 50
    cost_reduction_tol: float = 1e-8
    step_norm_tol: float = 1e-10
    lambda_init: float = 0.0
    lambda_growth: float = 10.0
    lambda_shrink: float = 10.0
    lambda_max: float = 1e8


@dataclass(frozen=True)
class ConstraintConfig:
    """Kinematic constraint selection and 1-sigma strengths."""

    use_nhc: bool = True
    nhc_sigma: float = 0.05  # m/s, lateral and vertical vehicle-frame velocity
    use_height: bool = False
    height_sigma: float = 0.01  # m
    pd_height: float = 0.0  # m, measured photodiode height for planar runs


@dataclass(frozen=True)
class PriorConfig:
    """1-sigma widths of the initial-state prior.

    Heading must be anchored externally (a single RSS cannot observe it);
    roll/pitch come from accelerometer leveling, position from the
    first-epoch RSS fix.
    """

    position: float = 0.2
    velocity: float = 0.2
    rollpitch: float = np.deg2rad(2.0)
    heading: float = np.deg2rad(0.5)
    bias_acc: float = 0.02
    bias_gyro: float = 2e-3

    def sqrt_info_diag(self) -> np.ndarray:
        sig = np.array(
            [self.position] * 3 + [self.velocity] * 3
            + [self.rollpitch, self.rollpitch, self.heading]
            + [self.bias_acc] * 3 + [self.bias_gyro] * 3
        )
        return 1.0 / sig**2


@dataclass(frozen=True)
class EstimatorConfig:
    imu_noise: ImuNoise
    window_size: int = 20
    blocked_variance: float = 99.0
    gravity: tuple = (0.0, 0.0, -9.80665)
    constraints: ConstraintConfig = field(default_factory=ConstraintConfig)
    lm: LmOptions = field(default_factory=LmOptions)
    prior: PriorConfig = field(default_factory=PriorConfig)
    unknown_led_ids: tuple[int, ...] = ()
    unknown_led_prior_sigma: float = 10.0  # m, keeps unobserved LED blocks solvable

    def __post_init__(self):
        # Sliding needs a next state to carry the marginal prior.
        if self.window_size < 2:
            raise ValueError(f"window_size must be at least 2, got {self.window_size}")

    @property
    def gravity_vec(self) -> np.ndarray:
        return np.asarray(self.gravity, dtype=float)


# ---------------------------------------------------------------------------
# Factors


def vlp_residual(state: NavState, sample: RssSample, led: LedBeacon, rx: ReceiverConfig,
                 led_xy=None) -> float | None:
    """Predicted-minus-measured RSS at the lever-arm-corrected PD position.

    Returns ``None`` when the predicted geometry falls outside the FOV;
    the caller skips the factor for that iterate.
    """
    if led_xy is not None:
        led = replace(led, position=np.array([led_xy[0], led_xy[1], led.position[2]]))
    R = quat_to_dcm(state.attitude)
    pd_pos = state.position + R @ rx.lever_arm_vlp
    pred = predict_rss(pd_pos, state.attitude, led, rx)
    if pred is None:
        return None
    return pred - sample.value


def vlp_jacobian_row(state: NavState, led: LedBeacon, rx: ReceiverConfig,
                     led_xy=None) -> tuple[np.ndarray, np.ndarray | None]:
    """Jacobian of one RSS residual over the 15-dim state error (+ LED block).

    Position block is the channel position gradient; the attitude block
    combines the direct normal-rotation term with the lever-arm swing,
    both mapped into the local attitude error; velocity and bias blocks
    are zero.  The optional 2-vector is the unknown-LED planar block.
    """
    if led_xy is not None:
        led = replace(led, position=np.array([led_xy[0], led_xy[1], led.position[2]]))
    R = quat_to_dcm(state.attitude)
    lever_u = R @ rx.lever_arm_vlp
    pd_pos = state.position + lever_u
    dp_dr, dp_dphi = rss_jacobian(pd_pos, state.attitude, led, rx)

    row = np.zeros(ERROR_DIM)
    row[0:3] = dp_dr
    # d r / d theta = -(A^T + B^T [lever_u x]) R, A = dp_dphi, B = dp_dr
    row[6:9] = -R.T @ (dp_dphi - skew(lever_u) @ dp_dr)
    led_block = -dp_dr[:2] if led_xy is not None else None
    return row, led_block


# ---------------------------------------------------------------------------
# Window and prior


@dataclass
class MarginalPrior:
    """Quadratic information carried over from marginalized variables, over
    the window's oldest state (15 dims), then every unknown LED (2 each) in
    :attr:`SlidingWindow.led_ids` order; a LED that no marginalized factor
    saw has zero rows.  It adds ``0.5 d^T H d + g^T d`` to the cost, with
    ``d = delta(window)``: the oldest state's error from ``state_lin``, then
    each LED's offset from its row of ``led_lin`` (L, 2).
    """

    hessian: np.ndarray
    gradient: np.ndarray
    state_lin: NavState
    led_lin: np.ndarray

    def delta(self, window: "SlidingWindow") -> np.ndarray:
        # The stored row, not a NavState copy: that would renormalize it.
        return np.concatenate([NavState.boxminus(window.states[0], self.state_lin),
                               (window.led_xy - self.led_lin).ravel()])


#: An RSS sample of a window: its state, LED-table row, value and variance.
RSS_SAMPLE = np.dtype([("state", int), ("led", int), ("value", float), ("variance", float)])


class SlidingWindow:
    """Ordered states plus their attached factors and the rolling prior.

    ``states`` is a :class:`StateArrays`, one row per epoch of ``epoch_ids``;
    IMU factor ``k`` joins states ``k`` and ``k + 1``.  ``rss`` holds the
    samples of LEDs on the map in state order (flagged ones at
    ``config.blocked_variance``).  The unknown LEDs ``led_ids`` (sorted
    ``config.unknown_led_ids``) have planar estimates ``led_xy`` (L, 2)
    and weak-prior centers ``led_init`` (L, 2), from the ``led_init``
    guesses (id -> (x, y)) or else the map.
    """

    def __init__(self, config: EstimatorConfig, leds: list[LedBeacon], rx: ReceiverConfig,
                 led_init: dict | None = None):
        self.config = config
        self.rx = rx
        self.led_map = {led.led_id: led for led in leds}
        self.led_table = LedTable.of(leds, rx)
        self.epoch_ids: list[int] = []
        self.states = StateArrays.of([])
        self.imu_factors: list[PreintegratedImu] = []
        self.rss = np.zeros(0, RSS_SAMPLE)
        self.prior: MarginalPrior | None = None
        self.led_ids = sorted(config.unknown_led_ids)
        led_init = led_init or {}
        self.led_init = np.array([led_init.get(i, self.led_map[i].position[:2])
                                  for i in self.led_ids], dtype=float).reshape(-1, 2)
        self.led_xy = self.led_init.copy()

    @property
    def n_states(self) -> int:
        return len(self.states)

    def append(self, epoch_id: int, state: NavState, pre: PreintegratedImu | None,
               rss: list[RssSample]) -> None:
        if self.n_states and pre is None:
            raise ValueError("non-initial states need an IMU factor")
        self.epoch_ids.append(epoch_id)
        if pre is not None:
            self.imu_factors.append(pre)
        table_row = self.led_table.row
        blocked = self.config.blocked_variance
        new = np.array([(self.n_states, table_row[s.led_id], s.value,
                         s.variance if s.flag is SampleFlag.LOS else blocked)
                        for s in rss if s.led_id in table_row], RSS_SAMPLE)
        self.rss = np.concatenate([self.rss, new])
        self.states = self.states.append(state)


# ---------------------------------------------------------------------------
# Normal equations

#: Error dims of a state that RSS and constraint factors reach: position,
#: velocity and attitude, the leading 9 of the 15.
NAV_DIM = 9


@dataclass
class FactorRows:
    """``F`` factors of one kind at the current window values, stacked.

    ``r`` holds the (F, m) residuals and ``info`` their (F, m, m)
    information.  Factor ``f`` touches the window states ``states[b][f]``
    (one state, or two adjacent ones in increasing order) and, when
    ``led`` is set and ``led[f]`` is not -1, the unknown LED ``led[f]``
    (its place in :attr:`SlidingWindow.led_ids`).  ``jac`` holds the
    (F, m, d) Jacobian of each state block, over the state's leading
    ``d`` error dims, then the LED block's.  Rows come in non-decreasing
    state order.
    """

    r: np.ndarray
    info: np.ndarray
    states: tuple
    jac: tuple
    led: np.ndarray | None = None

    def cost(self) -> float:
        return 0.5 * float(np.sum(self.r[:, None, :] @ self.info @ self.r[:, :, None]))

    def add_to(self, ne: "NormalEquations") -> None:
        """Accumulate ``J^T W J`` and ``J^T W r`` into the blocks of ``ne``.

        Each entry sums its terms in factor order, as a loop over the
        factors would.
        """
        if self.r.shape[0] == 0:
            return
        JtW = [np.swapaxes(J, 1, 2) @ self.info for J in self.jac]
        g = [(A @ self.r[:, :, None])[:, :, 0] for A in JtW]
        for a, k in enumerate(self.states):
            d = self.jac[a].shape[2]
            blocks = [(ne.g_x[:, :d], g[a]), (ne.diag[:, :d, :d], JtW[a] @ self.jac[a])]
            if a == 0 and len(self.states) == 2:
                blocks += [(ne.upper, JtW[0] @ self.jac[1]), (ne.lower, JtW[1] @ self.jac[0])]
            _add_sorted(k, blocks)
        if self.led is not None:
            m = self.led >= 0
            j, J_led = self.led[m], self.jac[-1][m]
            np.add.at(ne.g_l, j, g[-1][m])
            np.add.at(ne.led_blocks, (j, j), JtW[-1][m] @ J_led)
            for a, k in enumerate(self.states):
                d = self.jac[a].shape[2]
                np.add.at(ne.arrow_blocks[:, :, :d], (k[m], j), JtW[a][m] @ J_led)


def _add_sorted(index: np.ndarray, blocks) -> None:
    """``np.add.at(target, index, values)`` for each ``(target, values)`` of
    ``blocks`` and a non-decreasing ``index``, with the same sums: each
    index's rows are added to it in order."""
    new = np.diff(index, prepend=-1) != 0
    place = np.arange(index.size) - np.flatnonzero(new)[np.cumsum(new) - 1]
    unique = new.all()
    for c in range(place.max(initial=-1) + 1):
        rows = slice(None) if unique else place == c  # at most one row per index
        at = index[rows]
        for target, values in blocks:
            target[at] += values[rows]


@dataclass
class NormalEquations:
    """Gauss-Newton normal equations of a window, held as their blocks.

    Every factor touches one state, two adjacent states, or a state and
    an unknown LED, and the marginal prior the oldest state and the LEDs.
    So over N states (15 dims each) followed by L unknown LEDs (2 each,
    in :attr:`SlidingWindow.led_ids` order), the Hessian is
    block-tridiagonal over the states with a LED border: ``diag``
    (N, 15, 15) state blocks, ``upper`` (N-1, 15, 15) blocks of rows k
    and columns k + 1 and ``lower`` the blocks of rows k + 1 and columns
    k, ``arrow`` (N, 15, 2L) state-LED blocks (the LED-state ones are
    their transposes) and the ``led`` (2L, 2L) block.  ``g`` is the
    gradient in the same order and ``cost`` the cost.

    ``lower`` is kept, not taken as the transpose of ``upper``: where the
    terms of an IMU factor's cross block cancel, ``J1^T W J0`` and
    ``(J0^T W J1)^T`` differ by up to 1e-10 relative.
    """

    diag: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    arrow: np.ndarray
    led: np.ndarray
    g: np.ndarray
    cost: float = 0.0

    @classmethod
    def zeros(cls, n_states: int, n_leds: int) -> "NormalEquations":
        e = ERROR_DIM
        off = np.zeros((max(n_states - 1, 0), e, e))
        return cls(np.zeros((n_states, e, e)), off, off.copy(),
                   np.zeros((n_states, e, 2 * n_leds)), np.zeros((2 * n_leds, 2 * n_leds)),
                   np.zeros(e * n_states + 2 * n_leds))

    # Views for accumulation: per-state and per-LED gradients, (N, L, 15, 2)
    # state-LED blocks and (L, L, 2, 2) LED blocks.
    @property
    def g_x(self) -> np.ndarray:
        return self.g[:self.diag.size // ERROR_DIM].reshape(-1, ERROR_DIM)

    @property
    def g_l(self) -> np.ndarray:
        return self.g[self.diag.size // ERROR_DIM:].reshape(-1, 2)

    @property
    def arrow_blocks(self) -> np.ndarray:
        n, e, l2 = self.arrow.shape
        return self.arrow.reshape(n, e, l2 // 2, 2).transpose(0, 2, 1, 3)

    @property
    def led_blocks(self) -> np.ndarray:
        nl = self.led.shape[0] // 2
        return self.led.reshape(nl, 2, nl, 2).transpose(0, 2, 1, 3)

    def add_prior(self, hessian: np.ndarray, gradient: np.ndarray) -> None:
        """Add a quadratic over the oldest state, then every LED (the
        layout of :class:`MarginalPrior`)."""
        e = ERROR_DIM
        self.g[:e] += gradient[:e]
        self.g[self.diag.size // e:] += gradient[e:]
        self.diag[0] += hessian[:e, :e]
        self.arrow[0] += hessian[:e, e:]
        self.led += hessian[e:, e:]

    def dense(self) -> np.ndarray:
        """The Hessian as one dense matrix."""
        n, nx = len(self.diag), self.diag.size // ERROR_DIM
        Hx = np.zeros((n, ERROR_DIM, n, ERROR_DIM))
        k = np.arange(n)
        Hx[k, :, k] = self.diag
        Hx[k[:-1], :, k[1:]] = self.upper
        Hx[k[1:], :, k[:-1]] = self.lower
        H = np.zeros((self.g.size, self.g.size))
        H[:nx, :nx] = Hx.reshape(nx, nx)
        H[:nx, nx:] = self.arrow.reshape(nx, -1)
        H[nx:, :nx] = H[:nx, nx:].T
        H[nx:, nx:] = self.led
        return H

    def diagonal(self) -> np.ndarray:
        i = np.arange(ERROR_DIM)
        return np.concatenate([self.diag[:, i, i].ravel(), np.diag(self.led)])

    def solve(self, shift=0.0) -> tuple[np.ndarray, np.ndarray]:
        """Solve ``(H + diag(shift)) dx = -g`` by block elimination.

        The states are eliminated first to last, each 15x15 pivot by an LU
        solve, carrying the LED border along; then the LED block is solved
        and the states are back-substituted.  No symmetry is assumed.
        Returns ``dx`` and the LED block's Schur complement (the LEDs'
        information with every state marginalized out).  A singular pivot
        raises ``LinAlgError``; a non-finite system gives a non-finite
        ``dx``.
        """
        e, (n, _, l2) = ERROR_DIM, self.arrow.shape
        shift = np.broadcast_to(shift, self.g.shape)
        i = np.arange(e)
        S = self.diag.copy()
        S[:, i, i] += shift[:e * n].reshape(n, e)
        # As the forward pass reduces them: per state, the row blocks
        # [upper | arrow | rhs] and the LED rows' block ``B``; the LED rows
        # [led | rhs].
        R = np.zeros((n, e, e + l2 + 1))
        R[:-1, :, :e] = self.upper
        R[:, :, e:-1] = self.arrow
        R[:, :, -1] = -self.g_x
        B = np.swapaxes(self.arrow, 1, 2).copy()
        C = np.concatenate([self.led + np.diag(shift[e * n:]), -self.g[e * n:, None]], axis=1)
        X = np.empty_like(R)
        for k in range(n):
            X[k] = np.linalg.solve(S[k], R[k])
            C -= B[k] @ X[k, :, e:]
            if k + 1 < n:
                LX = self.lower[k] @ X[k]
                S[k + 1] -= LX[:, :e]
                R[k + 1, :, e:] -= LX[:, e:]
                B[k + 1] -= B[k] @ X[k, :, :e]
        schur = C[:, :-1]
        x_led = np.linalg.solve(schur, C[:, -1]) if l2 else np.zeros(0)
        x = X[:, :, -1] - X[:, :, e:-1] @ x_led
        for k in range(n - 2, -1, -1):
            x[k] -= X[k, :, :e] @ x[k + 1]
        return np.concatenate([x.ravel(), x_led]), schur


def _led_prior_rows(window: SlidingWindow, active: bool) -> FactorRows:
    """Weak prior keeping unobserved unknown-LED blocks solvable (no rows
    unless ``active``)."""
    n = len(window.led_ids) if active else 0
    r = (window.led_xy - window.led_init)[:n]
    w = 1.0 / window.config.unknown_led_prior_sigma**2
    eye = np.broadcast_to(np.eye(2), (n, 2, 2))
    return FactorRows(r, w * eye, (), (eye,), led=np.arange(n))


def _imu_rows(factors, gravity, X: StateArrays) -> FactorRows:
    """Rows of the IMU factors ``factors``; factor ``k`` joins states ``k`` and ``k + 1``."""
    n = len(factors)
    ks = np.arange(n)
    if n == 0:
        empty = np.zeros((0, ERROR_DIM, ERROR_DIM))
        return FactorRows(np.zeros((0, ERROR_DIM)), empty, (ks, ks), (empty, empty))
    pres = PreintegratedStack.of(factors)
    r, Jk, Jk1 = imu_residuals_batch(pres, X[:n], X[1:n + 1], gravity)
    return FactorRows(r, pres.information, (ks, ks + 1), (Jk, Jk1))


def _rss_rows(window: SlidingWindow, n_states: int, X: StateArrays, R) -> FactorRows:
    """One row per usable RSS sample of the first ``n_states`` states,
    through the batched Lambertian model.

    Samples out of the FOV, degenerate (PD at the LED) or grazing are
    left out.  Unknown LEDs use their current planar estimate.  With
    unknown LEDs in the window every row carries a LED block, -1 for the
    rows of known LEDs.
    """
    table = window.led_table
    samples = window.rss[:np.searchsorted(window.rss["state"], n_states)]
    st, li = samples["state"], samples["led"]
    led_pos = table.position.copy()
    led_of = np.full(len(table.row), -1)
    unknown = [table.row[i] for i in window.led_ids]
    led_pos[unknown, :2] = window.led_xy
    led_of[unknown] = np.arange(len(unknown))
    lever_u = R @ window.rx.lever_arm_vlp
    model = lambertian(X.position[st] + lever_u[st], R[st, :, 2], led_pos[li],
                       table.normal[li], table.order[li], table.gain[li],
                       window.rx.fov_cos(), gradients=True)
    keep = model.valid & model.regular
    st, j = st[keep], led_of[li[keep]]
    r = (model.rss[keep] - samples["value"][keep])[:, None]
    info = (1.0 / samples["variance"][keep])[:, None, None]
    dp_dr, dp_dphi = model.d_pos[keep], model.d_att[keep]
    J = np.zeros((st.size, 1, NAV_DIM))
    J[:, 0, 0:3] = dp_dr
    # d r / d theta = -R^T (A - [lever_u x] B), A = dp_dphi, B = dp_dr
    lever_swing = dp_dphi - np.cross(lever_u[st], dp_dr)
    J[:, 0, 6:9] = -(np.swapaxes(R[st], 1, 2) @ lever_swing[:, :, None])[:, :, 0]
    if not window.led_ids:
        return FactorRows(r, info, (st,), (J,))
    return FactorRows(r, info, (st,), (J, -dp_dr[:, None, :2]), led=j)


def _constraint_rows(cfg: ConstraintConfig, X: StateArrays, R) -> FactorRows:
    """Height (``p_z - pd_height``) and NHC (lateral and vertical vehicle-frame
    velocity) rows of every state."""
    n = len(X.position)
    r, var, J = [], [], []
    if cfg.use_height:
        row = np.zeros((n, NAV_DIM))
        row[:, 2] = 1.0
        r.append(X.position[:, 2] - cfg.pd_height)
        var.append(cfg.height_sigma**2)
        J.append(row)
    if cfg.use_nhc:
        Rt = np.swapaxes(R, 1, 2)
        v_v = (Rt @ X.velocity[:, :, None])[:, :, 0]
        S = skew_batch(v_v)
        for axis in (1, 2):
            row = np.zeros((n, NAV_DIM))
            row[:, 3:6] = Rt[:, axis]
            row[:, 6:9] = S[:, axis]
            r.append(v_v[:, axis])
            var.append(cfg.nhc_sigma**2)
            J.append(row)
    c = len(r)
    if c == 0:
        return FactorRows(np.zeros((0, 1)), np.zeros((0, 1, 1)), (np.zeros(0, dtype=int),),
                          (np.zeros((0, 1, NAV_DIM)),))
    info = np.broadcast_to(1.0 / np.array(var)[None, :, None, None], (n, c, 1, 1))
    return FactorRows(np.stack(r, axis=1).reshape(n * c, 1), info.reshape(n * c, 1, 1),
                      (np.repeat(np.arange(n), c),),
                      (np.stack(J, axis=1).reshape(n * c, 1, NAV_DIM),))


def normal_equations(window: SlidingWindow, n_states: int | None = None) -> NormalEquations:
    """Gauss-Newton normal equations of the window at its current values,
    in block form, and its cost; the estimator's one evaluation of its
    factors.

    Every factor is evaluated with its Jacobian in one stacked numpy pass
    per kind: the unknown-LED weak prior, the IMU factors, every RSS
    sample and the constraints of every state.  Which factors take part
    is decided here, once, so every iterate is scored by the same
    function.  ``cost`` is ``sum 0.5 r^T W r`` over those factors, then
    the marginal prior's quadratic.  With ``n_states`` = k only the
    factors of the first k states are evaluated (their RSS samples and
    constraint rows and the IMU factors leaving them) plus the marginal
    prior, and the equations span states 0..k.
    """
    k = window.n_states if n_states is None else n_states
    X = window.states[:k + 1]  # IMU factor k - 1 reaches state k
    R = quat_to_dcm_batch(X.attitude)
    cfg = window.config
    factors = [
        _led_prior_rows(window, k == window.n_states),
        _imu_rows(window.imu_factors[:k], cfg.gravity_vec, X),
        _rss_rows(window, k, X, R),
        _constraint_rows(cfg.constraints, X[:k], R[:k]),
    ]
    ne = NormalEquations.zeros(len(X), len(window.led_ids))
    ne.cost = sum(rows.cost() for rows in factors)
    p = window.prior
    if p is not None:
        d = p.delta(window)
        ne.cost += 0.5 * float(d @ p.hessian @ d) + float(p.gradient @ d)
        ne.add_prior(p.hessian, p.hessian @ d + p.gradient)
    for rows in factors:
        rows.add_to(ne)
    return ne


def assemble_cost(window: SlidingWindow):
    """Dense view of :func:`normal_equations`: ``(H, g, cost)``."""
    ne = normal_equations(window)
    return ne.dense(), ne.g, ne.cost


# ---------------------------------------------------------------------------
# Levenberg-Marquardt


@dataclass
class LmIteration:
    cost: float
    lam: float
    step_norm: float
    accepted: bool
    led_step: float = 0.0


@dataclass
class LmReport:
    converged: bool
    iterations: list[LmIteration] = field(default_factory=list)
    final_cost: float = math.nan

    @property
    def n_accepted(self) -> int:
        return sum(1 for it in self.iterations if it.accepted)


def solve_lm(window: SlidingWindow) -> LmReport:
    """Damped Gauss-Newton on the window; mutates it toward the optimum.

    Each step solves the block normal equations with ``lambda *
    clip(diag H)`` added to the diagonal (:meth:`NormalEquations.solve`).
    Each trial point is evaluated once, by :func:`normal_equations`: its
    cost decides the step, and an accepted step keeps its equations for
    the next one.  So the factors are evaluated once per trial point,
    plus once at the start, and never for their cost alone.  Starts
    undamped (a pure GN step solves quadratic costs exactly); damping
    engages only after a rejected step, or a singular or non-finite
    system.  Convergence: relative cost decrease below
    ``cost_reduction_tol`` or step norm below ``step_norm_tol``.  If the
    damping parameter exhausts ``lambda_max`` the best iterate is kept
    and the report flags no convergence.  The
    controls are the window's ``config.lm``.
    """
    opts = window.config.lm
    report = LmReport(converged=False)
    ne = normal_equations(window)
    cost = ne.cost
    lam = opts.lambda_init

    for _ in range(opts.max_iterations):
        try:
            dx, _ = ne.solve(lam * np.clip(ne.diagonal(), 1e-12, None))
        except np.linalg.LinAlgError:
            dx = None
        if dx is not None and np.all(np.isfinite(dx)):
            saved = window.states, window.led_xy
            nx = ERROR_DIM * window.n_states
            window.states = window.states.perturb(dx[:nx].reshape(-1, ERROR_DIM))
            window.led_xy = window.led_xy + dx[nx:].reshape(-1, 2)
            trial = normal_equations(window)
            new_cost = trial.cost
        else:
            new_cost = math.inf

        if math.isfinite(new_cost) and new_cost <= cost:
            step = float(np.linalg.norm(dx))
            led_step = max((float(np.linalg.norm(d)) for d in window.led_xy - saved[1]),
                           default=0.0)
            report.iterations.append(LmIteration(new_cost, lam, step, True, led_step))
            decrease = cost - new_cost
            cost, ne = new_cost, trial
            if decrease <= opts.cost_reduction_tol * max(cost, 1e-30) or (
                    step < opts.step_norm_tol):
                report.converged = True
                break
            lam = 0.0 if lam < 1e-12 else lam / opts.lambda_shrink
        else:
            if dx is not None:
                window.states, window.led_xy = saved
                if float(np.linalg.norm(dx)) < opts.step_norm_tol:
                    # No usable step left: the iterate is at the numeric floor.
                    report.converged = True
                    break
            report.iterations.append(LmIteration(cost, lam, 0.0, False))
            lam = max(lam * opts.lambda_growth, 1e-6)
            if lam > opts.lambda_max:
                logger.warning("LM damping exhausted; returning best iterate")
                break

    report.final_cost = cost
    return report


# ---------------------------------------------------------------------------
# Marginalization


def schur_marginalize(H: np.ndarray, g: np.ndarray, n_marg: int):
    """Eliminate the leading ``n_marg`` dims of a quadratic (H, g).

    Returns the reduced ``(H', g')`` over the remaining dims, or ``None``
    when the marginal block is indefinite (negative eigenvalue beyond
    round-off), in which case the caller should drop the factors instead.
    """
    Hmm = 0.5 * (H[:n_marg, :n_marg] + H[:n_marg, :n_marg].T)
    Hmr = H[:n_marg, n_marg:]
    Hrr = H[n_marg:, n_marg:]
    gm = g[:n_marg]
    gr = g[n_marg:]
    w, V = np.linalg.eigh(Hmm)
    scale = max(np.max(np.abs(w)), 1e-30)
    if np.min(w) < -1e-9 * scale:
        return None
    inv_w = np.where(w > 1e-12 * scale, 1.0 / np.maximum(w, 1e-300), 0.0)
    Hmm_inv = (V * inv_w) @ V.T
    H_new = Hrr - Hmr.T @ Hmm_inv @ Hmr
    g_new = gr - Hmr.T @ Hmm_inv @ gm
    return 0.5 * (H_new + H_new.T), g_new


def _marginalize_oldest(window: SlidingWindow) -> MarginalPrior | None:
    """Fold the prior and every factor touching the oldest state into a new
    prior over the next state and the LEDs.

    On an indefinite marginal block the oldest state's factors are dropped:
    the new prior keeps the old one's LED part and has a zero state block.
    """
    prior = window.prior
    # These reach the two oldest states and the LEDs: the dense view is
    # [oldest, next, LEDs].  The old prior is folded in wholesale (re-centering
    # a quadratic on new linearization points is exact), so nothing is lost.
    ne = normal_equations(window, n_states=1)
    reduced = schur_marginalize(ne.dense(), ne.g, ERROR_DIM)
    if reduced is not None:
        return MarginalPrior(*reduced, window.states.state(1), window.led_xy.copy())
    logger.warning("indefinite marginal block; dropping factors of epoch %d",
                   window.epoch_ids[0])
    if prior is None:
        return None
    hessian, gradient = prior.hessian.copy(), prior.gradient.copy()
    hessian[:ERROR_DIM], hessian[:, :ERROR_DIM], gradient[:ERROR_DIM] = 0.0, 0.0, 0.0
    return MarginalPrior(hessian, gradient, window.states.state(1), prior.led_lin)


def slide_and_marginalize(window: SlidingWindow, epoch_id: int, new_state: NavState,
                          pre: PreintegratedImu, rss: list[RssSample]) -> None:
    """Append a new epoch; if the window is full, marginalize the oldest."""
    if window.n_states >= window.config.window_size:
        window.prior = _marginalize_oldest(window)
        window.epoch_ids.pop(0)
        window.states = window.states[1:]
        window.imu_factors.pop(0)
        window.rss = window.rss[window.rss["state"] > 0]
        window.rss["state"] -= 1
    window.append(epoch_id, new_state, pre, rss)


# ---------------------------------------------------------------------------
# Unknown LEDs and DOP


def dop(points_2d, led_xy) -> float:
    """Geometric dilution of precision of a planar point set toward a LED.

    Rows of the design matrix are unit directions from each point to the
    LED; collinear or otherwise rank-deficient geometry returns ``inf``.
    """
    pts = np.atleast_2d(np.asarray(points_2d, dtype=float))
    led_xy = np.asarray(led_xy, dtype=float)
    if pts.shape[0] < 3:
        raise ValueError("DOP needs at least 3 points")
    d = led_xy[None, :] - pts
    norms = np.linalg.norm(d, axis=1)
    ok = norms > 1e-9
    if np.count_nonzero(ok) < 3:
        return math.inf
    A = d[ok] / norms[ok, None]
    G = A.T @ A
    w = np.linalg.eigvalsh(G)
    if w[0] < 1e-9 * max(w[-1], 1e-30):
        return math.inf
    return float(np.sqrt(np.trace(np.linalg.inv(G))))


@dataclass
class LedEstimate:
    led_id: int
    xy: np.ndarray
    cov: np.ndarray
    diverged: bool

    @property
    def cov_trace(self) -> float:
        return float(np.trace(self.cov))


#: m^2; an unknown LED whose marginal covariance trace exceeds this is flagged diverged.
LED_COV_THRESHOLD = 1.0


def estimate_unknown_leds(window: SlidingWindow,
                          report: LmReport | None = None) -> dict[int, LedEstimate]:
    """Read back unknown-LED estimates and marginal covariances.

    The covariance is the inverse of the LED block's Schur complement,
    with every state marginalized out of ``H + 1e-12 I``.  A LED is
    flagged diverged when the optimizer failed to converge with its
    planar step still growing.  It is also flagged when its marginal
    covariance trace exceeds ``LED_COV_THRESHOLD`` (weak geometry; compare
    a DOP map).
    """
    out = {}
    if not window.led_ids:
        return out
    # The LED block's Schur complement is the inverse of their covariance.
    cov_full = np.linalg.inv(normal_equations(window).solve(1e-12)[1])
    steps = [it.led_step for it in (report.iterations if report else []) if it.accepted]
    growing = len(steps) >= 3 and steps[-1] > steps[-2] > steps[-3] and steps[-1] > 1e-3
    non_conv = report is not None and not report.converged
    for j, led_id in enumerate(window.led_ids):
        cov = cov_full[2 * j:2 * j + 2, 2 * j:2 * j + 2]
        diverged = (non_conv and growing) or float(np.trace(cov)) > LED_COV_THRESHOLD
        out[led_id] = LedEstimate(led_id=led_id, xy=window.led_xy[j].copy(),
                                  cov=cov, diverged=diverged)
    return out


# ---------------------------------------------------------------------------
# Driver


@dataclass
class EpochDiagnostics:
    epoch_id: int
    timestamp: float
    cost: float
    iterations: int
    converged: bool
    los_count: int
    flagged_count: int
    reintegrations: int = 0  # IMU factors re-preintegrated before this epoch's solve
    led_dop: dict = field(default_factory=dict)


class TightlyCoupledEstimator:
    """Feeds epochs through the sliding window and records trajectories.

    ``causal`` holds the real-time stream (the newest state right after
    each solve); ``smoothed`` holds each state's final value when it
    leaves the window (or at shutdown), i.e. the fixed-lag smoother
    output.  ``led_init`` is as for :class:`SlidingWindow`.
    """

    def __init__(self, config: EstimatorConfig, leds: list[LedBeacon], rx: ReceiverConfig,
                 led_init: dict | None = None):
        self.config = config
        self.window = SlidingWindow(config, leds, rx, led_init)
        self.causal: list[NavState] = []
        self.smoothed: list[NavState] = []
        self.diagnostics: list[EpochDiagnostics] = []
        self._epoch_counter = 0

    def start(self, state0: NavState, rss0: list[RssSample]) -> LmReport:
        if self.window.n_states:
            raise RuntimeError("estimator already started")
        self.window.append(0, state0, None, rss0)
        # A zero LED block: nothing is known of the LEDs beyond their weak prior.
        info = np.pad(self.config.prior.sqrt_info_diag(), (0, 2 * len(self.window.led_ids)))
        self.window.prior = MarginalPrior(np.diag(info), np.zeros(info.size), state0.copy(),
                                          self.window.led_xy.copy())
        return self._solve_and_record(rss0)

    def step(self, pre: PreintegratedImu, rss: list[RssSample], timestamp: float) -> LmReport:
        if not self.window.n_states:
            raise RuntimeError("estimator not started")
        self._epoch_counter += 1
        reintegrations = self._reintegrate()
        # The stored row: a NavState copy would renormalize its attitude.
        seed = mechanize(pre, self.window.states[-1], self.config.gravity_vec, timestamp)
        if self.window.n_states >= self.config.window_size:
            self.smoothed.append(self.window.states.state(0))
        slide_and_marginalize(self.window, self._epoch_counter, seed, pre, rss)
        return self._solve_and_record(rss, reintegrations)

    def finalize(self) -> list[NavState]:
        """Flush remaining window states into the smoothed trajectory."""
        self.smoothed.extend(self.window.states.state(k) for k in range(self.window.n_states))
        return self.smoothed

    def _reintegrate(self) -> int:
        """Re-preintegrate each IMU factor whose start state's bias moved past
        ``BIAS_CORRECTION_WARN_ACC`` / ``BIAS_CORRECTION_WARN_GYRO`` from the
        factor's linearization bias, where the first-order correction
        degrades.  Runs between solves, so LM sees one fixed cost."""
        window = self.window
        count = 0
        for k, pre in enumerate(window.imu_factors):
            x = window.states[k]
            if (np.linalg.norm(x.bias_acc - pre.bias_acc) > BIAS_CORRECTION_WARN_ACC
                    or np.linalg.norm(x.bias_gyro - pre.bias_gyro) > BIAS_CORRECTION_WARN_GYRO):
                window.imu_factors[k] = preintegrate(
                    pre.stream, x.bias_acc, x.bias_gyro, window.rx.dcm_body_to_vlp,
                    self.config.imu_noise, t_end=pre.t_end)
                count += 1
        return count

    def _solve_and_record(self, rss: list[RssSample], reintegrations: int = 0) -> LmReport:
        report = solve_lm(self.window)
        last = self.window.states.state(-1)
        self.causal.append(last)
        los = sum(1 for s in rss if s.flag is SampleFlag.LOS)
        led_dop = {}
        if self.window.n_states >= 3:
            pts = self.window.states.position[:, :2]
            led_dop = {i: dop(pts, xy) for i, xy in zip(self.window.led_ids, self.window.led_xy)}
        self.diagnostics.append(EpochDiagnostics(
            epoch_id=self.window.epoch_ids[-1],
            timestamp=last.timestamp,
            cost=report.final_cost,
            iterations=len(report.iterations),
            converged=report.converged,
            los_count=los,
            flagged_count=len(rss) - los,
            reintegrations=reintegrations,
            led_dop=led_dop,
        ))
        return report
