"""Sliding-window tightly-coupled VLP/INS graph optimizer.

A window of navigation states (one per VLP epoch) is connected by IMU
pre-integration factors and observed by per-LED RSS factors, the
non-holonomic constraint (NHC) on every state, optionally a height
constraint, and a Gaussian prior that carries the information of states
marginalized out of the window.  The stacked nonlinear least-squares cost

    sum ||r_imu||^2_Sigma + sum ||r_rss||^2_sigma + sum ||r_c||^2 + prior

is minimized over the 15-dim error space of every state (plus 2-dim
planar blocks for LEDs with unknown positions) with Levenberg-Marquardt;
quaternions update through their minimal space.  The prior is the
window's only one: it starts as the initial-state prior and, for every
unknown LED, a weak prior on its planar guess; sliding folds the oldest
state into it by Schur complement at the current linearization, so it
always covers the window's oldest state and then every unknown LED
(:class:`MarginalPrior`).

:func:`normal_equations` is the one evaluation of the factors: a
stacked pass over the window in which every RSS sample (through the
batched Lambertian model), every IMU factor and the constraint rows of
every state become arrays of residuals, information and Jacobian blocks.  Each
factor touches one state, two adjacent states or a state and an unknown
LED, so the pass reduces them, with the prior, to a block-tridiagonal
Hessian over the states with a border of LED columns
(:class:`NormalEquations`), and sets the cost.  LM evaluates each trial
point once this way: the cost decides the step, and an accepted point's
equations give the next step, solved by block elimination in time
linear in the window length.  LM stops when the damped system's own
predicted decrease is negligible, without evaluating that step, and
damps by the gain ratio (Nielsen's rule).  The elimination's forward
pass, :meth:`NormalEquations.eliminate`, is the one Schur step.  The
window keeps the pass of its final values: :func:`_marginalize_oldest`
takes the rows of the oldest state's factors from it and eliminates
that state by one step, and :func:`estimate_unknown_leds` inverts the
LED block left once every state is eliminated.  :func:`assemble_cost`
is the dense view of the whole window.

Flagged (blocked) RSS samples are not deleted: they enter with the large
``BLOCKED_VARIANCE`` so the corrupted measurements carry negligible
weight.  Samples whose predicted geometry is outside the FOV,
degenerate (photodiode at the LED) or grazing are left out of both the
cost and the Hessian.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .attitude import quat_to_dcm, skew
from .channel import LedTable, ReceiverConfig, SampleFlag, lambertian
from .preint import (
    BIAS_CORRECTION_WARN_ACC,
    BIAS_CORRECTION_WARN_GYRO,
    ImuNoise,
    PreintegratedStack,
    imu_residuals_batch,
    mechanize,
    preintegrate,
)
from .state import ERROR_DIM, StateArrays, boxminus

logger = logging.getLogger(__name__)

__all__ = [
    "EstimatorConfig",
    "LmReport",
    "MarginalPrior",
    "NormalEquations",
    "SlidingWindow",
    "TightlyCoupledEstimator",
    "assemble_cost",
    "dop",
    "estimate_unknown_leds",
    "normal_equations",
    "slide_and_marginalize",
    "solve_lm",
]


# ---------------------------------------------------------------------------
# Configuration


#: Levenberg-Marquardt controls of :func:`solve_lm`.
LM_MAX_ITERATIONS = 50
LM_COST_REDUCTION_TOL = 1e-8
LM_STEP_NORM_TOL = 1e-10
LM_LAMBDA_MAX = 1e8

#: Variance of a flagged (blocked) RSS sample: large, so that a corrupted
#: value carries negligible weight.
BLOCKED_VARIANCE = 99.0
#: m/s, 1-sigma of the non-holonomic constraint (NHC): a wheeled platform
#: neither slides sideways nor leaves the floor, so the lateral and
#: vertical components of every state's VLP-frame velocity stay near zero.
NHC_SIGMA = 0.05
#: m, 1-sigma of the height constraint about the receiver's ``pd_height``.
HEIGHT_SIGMA = 0.01
#: m, 1-sigma of the weak prior on each unknown LED's planar guess; keeps
#: a LED that no sample reaches solvable.
UNKNOWN_LED_PRIOR_SIGMA = 10.0

#: Information (1 / sigma^2) of the initial-state prior over the 15 error
#: dims.  The widths: position 0.2 m (the first-epoch RSS fix), velocity
#: 0.2 m/s, roll/pitch 2 deg (accelerometer leveling), heading 0.5 deg
#: (anchored externally: a single RSS cannot observe it), accelerometer
#: bias 0.02 m/s^2 and gyro bias 2e-3 rad/s.
INITIAL_PRIOR_INFORMATION = 1.0 / np.array(
    [0.2] * 3 + [0.2] * 3
    + [np.deg2rad(2.0), np.deg2rad(2.0), np.deg2rad(0.5)]
    + [0.02] * 3 + [2e-3] * 3
)**2


@dataclass(frozen=True)
class EstimatorConfig:
    """What a dataset or a run sets; the method's tuning values and factors
    (the NHC on every state among them) are the module's.  ``use_height``
    adds the height constraint to the receiver's ``pd_height``."""

    imu_noise: ImuNoise
    window_size: int = 20
    gravity: tuple = (0.0, 0.0, -9.80665)
    use_height: bool = False
    unknown_led_ids: tuple[int, ...] = ()

    def __post_init__(self):
        # Sliding needs a next state to carry the marginal prior.
        if self.window_size < 2:
            raise ValueError(f"window_size must be at least 2, got {self.window_size}")
        if len(set(self.unknown_led_ids)) != len(self.unknown_led_ids):
            raise ValueError(f"unknown_led_ids repeats an id: {list(self.unknown_led_ids)}")

    @property
    def gravity_vec(self) -> np.ndarray:
        return np.asarray(self.gravity, dtype=float)


# ---------------------------------------------------------------------------
# Window and prior


@dataclass
class MarginalPrior:
    """The window's prior: the initial-state prior and the unknown LEDs'
    weak priors, with the information of marginalized variables folded in.
    It spans the window's oldest state (15 dims), then every unknown LED
    (2 each) in :attr:`SlidingWindow.led_ids` order; a LED that no
    marginalized factor saw keeps its weak prior's block alone.  It adds
    ``0.5 d^T H d + g^T d`` to the cost, with ``d = delta(window)``: the
    oldest state's error from ``state_lin``, then each LED's offset from
    its row of ``led_lin`` (L, 2).
    """

    hessian: np.ndarray
    gradient: np.ndarray
    state_lin: StateArrays  # a row
    led_lin: np.ndarray

    def delta(self, window: "SlidingWindow") -> np.ndarray:
        return np.concatenate([boxminus(window.states[0], self.state_lin),
                               (window.led_xy - self.led_lin).ravel()])


#: An RSS sample of a window: its state, LED-table row, value and variance.
RSS_SAMPLE = np.dtype([("state", int), ("led", int), ("value", float), ("variance", float)])


class SlidingWindow:
    """Ordered states plus their attached factors and the rolling prior,
    held as three tables.

    ``states`` is a :class:`StateArrays`, one row per epoch of ``epoch_ids``.
    ``imu`` is a :class:`PreintegratedStack` whose row ``k`` joins states
    ``k`` and ``k + 1``.  ``rss`` holds the samples of LEDs on the map
    ``led_table`` in state order, each with its table row, flagged ones
    at ``BLOCKED_VARIANCE``.  The unknown LEDs ``led_ids`` (sorted
    ``config.unknown_led_ids``) have planar estimates ``led_xy`` (L, 2),
    which start from the ``led_init`` guesses (id -> (x, y)), one for
    every unknown LED (a missing one raises ``KeyError``); ``led_rows``
    are their table rows and ``led_of`` maps each table row to its place
    in ``led_ids``, -1 for a known LED.  ``prior`` is the
    window's one prior.  ``equations`` is the
    :class:`NormalEquations` of the current values that :func:`solve_lm`
    leaves behind; :meth:`append` and a re-integration drop it.
    """

    def __init__(self, config: EstimatorConfig, led_table: LedTable, rx: ReceiverConfig,
                 led_init: dict | None = None):
        self.config = config
        self.rx = rx
        self.led_table = led_table
        self.epoch_ids: list[int] = []
        self.states = StateArrays.empty()
        self.imu = PreintegratedStack.empty()
        self.rss = np.zeros(0, RSS_SAMPLE)
        self.prior: MarginalPrior | None = None
        self.led_ids = sorted(config.unknown_led_ids)
        self.led_rows = np.array([led_table.row[i] for i in self.led_ids], dtype=int)
        self.led_of = np.full(len(led_table.row), -1)
        self.led_of[self.led_rows] = np.arange(len(self.led_ids))
        led_init = led_init or {}
        self.led_xy = np.array([led_init[i] for i in self.led_ids], dtype=float).reshape(-1, 2)
        self.equations: NormalEquations | None = None

    @property
    def n_states(self) -> int:
        return len(self.states)

    def append(self, epoch_id: int, state: StateArrays, pre: PreintegratedStack | None,
               rss: np.ndarray) -> None:
        """Add a state (a row), the one-row IMU stack that joins the newest
        state to it (``None`` for the first state) and its samples."""
        if self.n_states and pre is None:
            raise ValueError("non-initial states need an IMU factor")
        self.epoch_ids.append(epoch_id)
        if pre is not None:
            self.imu = self.imu.append(pre)
        table_row = self.led_table.row
        rss = rss[np.isin(rss["led_id"], list(table_row))]
        new = np.empty(len(rss), RSS_SAMPLE)
        new["state"] = self.n_states
        new["led"] = [table_row[i] for i in rss["led_id"].tolist()]
        new["value"] = rss["value"]
        new["variance"] = np.where(rss["flag"] == SampleFlag.LOS, rss["variance"],
                                   BLOCKED_VARIANCE)
        self.rss = np.concatenate([self.rss, new])
        self.states = self.states.append(state)
        self.equations = None


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
    ``d`` error dims, then the LED block's.  Every factor touches a
    state; rows come in non-decreasing state order.
    """

    r: np.ndarray
    info: np.ndarray
    states: tuple
    jac: tuple
    led: np.ndarray | None = None

    def cost(self) -> float:
        return 0.5 * float(np.sum(self.r[:, None, :] @ self.info @ self.r[:, :, None]))

    def oldest(self) -> "FactorRows":
        """The rows whose first state is the window's oldest, a prefix of
        the rows."""
        n = int(np.searchsorted(self.states[0], 0, side="right"))
        return FactorRows(self.r[:n], self.info[:n], tuple(k[:n] for k in self.states),
                          tuple(J[:n] for J in self.jac),
                          None if self.led is None else self.led[:n])

    def add_to(self, ne: "NormalEquations") -> None:
        """Accumulate ``J^T W J`` and ``J^T W r`` into the blocks of ``ne``.

        The blocks a factor adds to one of its states land in that state's
        slots (:func:`_slots`): slot ``c`` holds the ``c``-th row of every
        state.  Adding the slots in order sums each entry's terms in factor
        order, as a loop over the factors would.  The LED blocks are summed
        by ``np.add.at``, in factor order too.
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
            for at, rows in _slots(k):
                for target, values in blocks:
                    target[at] += values[rows]
        if self.led is not None:
            m = self.led >= 0
            j, J_led = self.led[m], self.jac[-1][m]
            np.add.at(ne.g_l, j, g[-1][m])
            np.add.at(ne.led_blocks, (j, j), JtW[-1][m] @ J_led)
            for a, k in enumerate(self.states):
                d = self.jac[a].shape[2]
                np.add.at(ne.arrow_blocks[:, :, :d], (k[m], j), JtW[a][m] @ J_led)


def _slots(index: np.ndarray) -> list:
    """The slots of a non-decreasing state ``index``, as ``(at, rows)``
    pairs: slot ``c`` adds the ``c``-th row of each state that has one
    (``rows``) to that state (``at``).  When consecutive states all have
    ``m`` rows (the IMU and constraint rows), both are slices."""
    ks = index.tolist()
    m = ks.count(ks[0])
    heads = ks[::m]
    if ks[m - 1::m] == heads == list(range(ks[0], ks[0] + len(heads))):
        at = slice(ks[0], ks[0] + len(heads))
        return [(at, slice(c, None, m)) for c in range(m)]
    first = np.flatnonzero(np.diff(index, prepend=-1))
    states, count = index[first], np.diff(first, append=index.size)
    return [(states[count > c], first[count > c] + c) for c in range(count.max())]


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
    gradient in the same order and ``cost`` the cost.  ``rows`` are the
    :class:`FactorRows` the equations were reduced from.

    ``lower`` is kept, not taken as the transpose of ``upper``: where the
    terms of an IMU factor's cross block cancel, ``J1^T W J0`` and
    ``(J0^T W J1)^T`` differ by up to 1e-10 relative.

    :func:`_reduce` fills the blocks in one order: the prior, then each
    kind of :class:`FactorRows` (IMU, RSS, constraint) by
    :meth:`FactorRows.add_to`, so every entry is the sum of its terms in
    that factor order.  :meth:`eliminate` skips the LED rows' updates when
    the window has no unknown LEDs.
    """

    diag: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    arrow: np.ndarray
    led: np.ndarray
    g: np.ndarray
    cost: float = 0.0
    rows: tuple = ()

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

    def eliminate(self, shift=0.0, count=None):
        """Eliminate the first ``count`` states (default all) from
        ``(H + diag(shift)) dx = -g``, first to last, each 15x15 pivot by an
        LU solve; no symmetry is assumed.  Returns ``(X, S, R, B, C)``:
        ``X`` the solved pivot rows ``[upper | arrow | rhs]`` of the
        eliminated states, then what is left, the Schur complement with
        gradient ``-rhs``: per remaining state its pivot ``S``, rows ``R``
        and LED rows' block ``B``, and the LED rows ``C`` (``[led | rhs]``).
        A singular pivot raises ``LinAlgError``."""
        e, (n, _, l2) = ERROR_DIM, self.arrow.shape
        count = n if count is None else count
        shift = np.broadcast_to(shift, self.g.shape)
        i = np.arange(e)
        S = self.diag.copy()
        S[:, i, i] += shift[:e * n].reshape(n, e)
        R = np.zeros((n, e, e + l2 + 1))
        R[:-1, :, :e] = self.upper
        R[:, :, e:-1] = self.arrow
        R[:, :, -1] = -self.g_x
        B = np.swapaxes(self.arrow, 1, 2).copy()
        C = np.concatenate([self.led + np.diag(shift[e * n:]), -self.g[e * n:, None]], axis=1)
        X = np.empty_like(R[:count])
        for k in range(count):
            X[k] = np.linalg.solve(S[k], R[k])
            if l2:
                C -= B[k] @ X[k, :, e:]
            if k + 1 < n:
                LX = self.lower[k] @ X[k]
                S[k + 1] -= LX[:, :e]
                R[k + 1, :, e:] -= LX[:, e:]
                if l2:
                    B[k + 1] -= B[k] @ X[k, :, :e]
        return X, S[count:], R[count:], B[count:], C

    def solve(self, shift=0.0) -> np.ndarray:
        """Solve ``(H + diag(shift)) dx = -g``: :meth:`eliminate` every state,
        solve the LED block, back-substitute.  Non-finite input gives a
        non-finite ``dx``."""
        X, _, _, _, C = self.eliminate(shift)
        x_led = np.linalg.solve(C[:, :-1], C[:, -1]) if len(C) else np.zeros(0)
        x = X[:, :, -1] - X[:, :, ERROR_DIM:-1] @ x_led
        for k in range(len(x) - 2, -1, -1):
            x[k] -= X[k, :, :ERROR_DIM] @ x[k + 1]
        return np.concatenate([x.ravel(), x_led])


def _imu_rows(imu: PreintegratedStack, gravity, X: StateArrays) -> FactorRows:
    """Rows of the IMU factors ``imu``; factor ``k`` joins states ``k`` and ``k + 1``."""
    n = len(imu)
    ks = np.arange(n)
    r, Jk, Jk1 = imu_residuals_batch(imu, X[:n], X[1:n + 1], gravity)
    return FactorRows(r, imu.information, (ks, ks + 1), (Jk, Jk1))


def _rss_rows(window: SlidingWindow, X: StateArrays, R) -> FactorRows:
    """One row per usable RSS sample, through the batched Lambertian model.

    Samples out of the FOV, degenerate (PD at the LED) or grazing are
    left out.  Unknown LEDs use their current planar estimate.  With
    unknown LEDs in the window every row carries a LED block, -1 for the
    rows of known LEDs.
    """
    table = window.led_table
    samples = window.rss
    st, li = samples["state"], samples["led"]
    led_pos = table.position.copy()
    led_pos[window.led_rows, :2] = window.led_xy
    lever_u = R @ window.rx.lever_arm_vlp
    model = lambertian(X.position[st] + lever_u[st], R[st, :, 2], led_pos[li],
                       table.normal[li], table.order[li], table.gain[li],
                       window.rx.fov_cos(), gradients=True)
    keep = model.valid & model.regular
    st, j = st[keep], window.led_of[li[keep]]
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


def _constraint_rows(window: SlidingWindow, X: StateArrays, R) -> FactorRows:
    """Constraint rows of every state: with ``config.use_height`` the
    height ``p_z - pd_height`` (the receiver's), then the NHC, the lateral
    and vertical components of the VLP-frame velocity."""
    n = len(X.position)
    r, var, J = [], [], []
    if window.config.use_height:
        row = np.zeros((n, NAV_DIM))
        row[:, 2] = 1.0
        r.append(X.position[:, 2] - window.rx.pd_height)
        var.append(HEIGHT_SIGMA**2)
        J.append(row)
    Rt = np.swapaxes(R, 1, 2)
    v_v = (Rt @ X.velocity[:, :, None])[:, :, 0]
    S = skew(v_v)
    for axis in (1, 2):
        row = np.zeros((n, NAV_DIM))
        row[:, 3:6] = Rt[:, axis]
        row[:, 6:9] = S[:, axis]
        r.append(v_v[:, axis])
        var.append(NHC_SIGMA**2)
        J.append(row)
    c = len(r)
    info = np.broadcast_to(1.0 / np.array(var)[None, :, None, None], (n, c, 1, 1))
    return FactorRows(np.stack(r, axis=1).reshape(n * c, 1), info.reshape(n * c, 1, 1),
                      (np.repeat(np.arange(n), c),),
                      (np.stack(J, axis=1).reshape(n * c, 1, NAV_DIM),))


def normal_equations(window: SlidingWindow) -> NormalEquations:
    """Gauss-Newton normal equations of the window at its current values,
    in block form, and its cost; the estimator's one evaluation of its
    factors.

    Every factor is evaluated with its Jacobian in one stacked numpy pass
    per kind: the IMU factors, every RSS sample and the constraint rows of
    every state.  Which RSS samples take part is decided again at every
    pass, from the values it is given: :func:`_rss_rows` drops the samples
    whose predicted geometry is out of the FOV, degenerate or grazing at
    those values.  So two iterates of one solve may be scored over
    different factor sets, and a step that pushes a sample out of the FOV
    lowers the cost by removing its residual (ROADMAP item 5 fixes the set
    at the solve's first pass).  ``cost`` is ``sum 0.5 r^T W r`` over the
    factors, then the marginal prior's quadratic.
    """
    X = window.states
    R = quat_to_dcm(X.attitude)
    rows = (
        _imu_rows(window.imu, window.config.gravity_vec, X),
        _rss_rows(window, X, R),
        _constraint_rows(window, X, R),
    )
    ne = _reduce(window, len(X), rows)
    ne.cost += sum(r.cost() for r in rows)
    return ne


def _reduce(window: SlidingWindow, n_states: int, rows) -> NormalEquations:
    """The marginal prior and ``rows`` accumulated over the window's first
    ``n_states`` states and its LEDs; ``cost`` is the prior's."""
    ne = NormalEquations.zeros(n_states, len(window.led_ids))
    ne.rows = rows
    p = window.prior
    if p is not None:
        d = p.delta(window)
        ne.cost = 0.5 * float(d @ p.hessian @ d) + float(p.gradient @ d)
        ne.add_prior(p.hessian, p.hessian @ d + p.gradient)
    for r in rows:
        r.add_to(ne)
    return ne


def _equations(window: SlidingWindow) -> NormalEquations:
    """The window's normal equations at its current values: the pass
    :func:`solve_lm` kept, or else a fresh one."""
    return normal_equations(window) if window.equations is None else window.equations


def assemble_cost(window: SlidingWindow):
    """Dense view of :func:`normal_equations`: ``(H, g, cost)``."""
    ne = normal_equations(window)
    return ne.dense(), ne.g, ne.cost


# ---------------------------------------------------------------------------
# Levenberg-Marquardt


#: Why :func:`solve_lm` stopped (``LmReport.stop``); ``diagnostics.csv``
#: writes a stop as its index here.
STOP_REASONS = ("model", "step", "max_iterations", "damping")


@dataclass
class LmIteration:
    """One evaluated trial point (a failed solve has ``step_norm`` 0): the
    cost after it, the damping it was solved with, the decrease the
    quadratic model ``predicted`` and the gain ratio ``rho``, the actual
    decrease over the predicted one."""

    cost: float
    lam: float
    step_norm: float
    accepted: bool
    led_step: float = 0.0
    rho: float = math.nan
    predicted: float = math.nan


@dataclass
class LmReport:
    converged: bool
    iterations: list[LmIteration] = field(default_factory=list)
    final_cost: float = math.nan
    stop: str = "max_iterations"  # one of STOP_REASONS

    @property
    def n_accepted(self) -> int:
        return sum(1 for it in self.iterations if it.accepted)


def solve_lm(window: SlidingWindow) -> LmReport:
    """Damped Gauss-Newton on the window; mutates it toward the optimum.

    Each step solves the block normal equations with ``shift = lambda *
    clip(diag H)`` added to the diagonal (:meth:`NormalEquations.solve`).
    The step's predicted decrease comes from that system itself: since
    ``(H + diag(shift)) dx = -g`` it is ``0.5 (dx.(shift dx) - g.dx)``.
    The solve stops, converged, when the predicted decrease is at most
    ``LM_COST_REDUCTION_TOL * cost`` (``model``) or the step norm is below
    ``LM_STEP_NORM_TOL`` (``step``), without evaluating that step.  Otherwise
    the trial point is evaluated once, by :func:`normal_equations`: it is
    accepted when its cost falls, and then its equations give the next
    step.  So the factors are evaluated once per trial point, plus once
    at the start, and never for their cost alone.  Damping follows
    Nielsen's rule (Madsen, Nielsen & Tingleff 2004, sec. 3.2), with the
    gain ratio ``rho`` (actual over predicted decrease): an accepted step
    multiplies ``lambda`` by ``max(1/3, 1 - (2 rho - 1)^3)`` and resets
    ``nu`` to 2; a rejected step, or a singular or non-finite system, sets
    ``lambda`` to ``max(lambda nu, 1e-6)`` and doubles ``nu``.  The solve
    starts undamped (``lambda`` 0: a pure GN step solves quadratic costs
    exactly).  If ``lambda`` exceeds ``LM_LAMBDA_MAX`` (``damping``) or
    ``LM_MAX_ITERATIONS`` trial points pass, the best iterate is kept and
    the report flags no convergence.  The window keeps the equations of
    its final values (``window.equations``).
    """
    report = LmReport(converged=False)
    ne = normal_equations(window)
    cost = ne.cost
    lam, nu = 0.0, 2.0

    for _ in range(LM_MAX_ITERATIONS):
        shift = lam * np.clip(ne.diagonal(), 1e-12, None)
        try:
            dx = ne.solve(shift)
        except np.linalg.LinAlgError:
            dx = None
        rho = predicted = math.nan
        if dx is not None and np.all(np.isfinite(dx)):
            predicted = 0.5 * float(dx @ (shift * dx) - ne.g @ dx)
            step = float(np.linalg.norm(dx))
            model_done = predicted <= LM_COST_REDUCTION_TOL * max(cost, 1e-30)
            if model_done or step < LM_STEP_NORM_TOL:
                report.converged = True
                report.stop = "model" if model_done else "step"
                break
            saved = window.states, window.led_xy
            nx = ERROR_DIM * window.n_states
            window.states = window.states.perturb(dx[:nx].reshape(-1, ERROR_DIM))
            window.led_xy = window.led_xy + dx[nx:].reshape(-1, 2)
            trial = normal_equations(window)
            rho = (cost - trial.cost) / predicted
            if rho > 0.0:
                led_step = max((float(np.linalg.norm(d)) for d in window.led_xy - saved[1]),
                               default=0.0)
                report.iterations.append(
                    LmIteration(trial.cost, lam, step, True, led_step, rho, predicted))
                cost, ne = trial.cost, trial
                lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                nu = 2.0
                continue
            window.states, window.led_xy = saved
        report.iterations.append(LmIteration(cost, lam, 0.0, False, rho=rho,
                                             predicted=predicted))
        lam, nu = max(lam * nu, 1e-6), 2.0 * nu
        if lam > LM_LAMBDA_MAX:
            logger.warning("LM damping exhausted; returning best iterate")
            report.stop = "damping"
            break

    report.final_cost = cost
    window.equations = ne
    return report


# ---------------------------------------------------------------------------
# Marginalization


def _indefinite(pivot: np.ndarray) -> bool:
    """Whether a block's symmetric part has an eigenvalue below -1e-9 x its largest one."""
    w = np.linalg.eigvalsh(0.5 * (pivot + pivot.T))
    return w[0] < -1e-9 * max(np.abs(w).max(), 1e-30)


def _marginalize_oldest(window: SlidingWindow) -> MarginalPrior | None:
    """Fold the prior and every factor touching the oldest state into a new
    prior over the next state and the LEDs.

    The factors are linearized once for the whole window: this reuses the
    pass :func:`solve_lm` left on the window (or takes a fresh one) and
    selects its rows of the oldest state, which are IMU factor 0 and the
    oldest state's RSS samples and constraint rows.  With the old prior
    they form a system over the two oldest states and the LEDs; its first
    :meth:`NormalEquations.eliminate` step leaves the new prior, in which
    a term on the LEDs alone passes through unchanged.  On an indefinite
    marginal block the oldest state's factors are dropped: the new prior
    keeps the old one's LED part and has a zero state block.  The new
    prior is linearized at the window's stored next state.
    """
    prior = window.prior
    # The old prior is folded in wholesale (re-centering a quadratic on new
    # linearization points is exact), so nothing is lost.
    ne = _reduce(window, 2, tuple(rows.oldest() for rows in _equations(window).rows))
    if not _indefinite(ne.diag[0]):
        _, (S,), (R,), (B,), C = ne.eliminate(count=1)
        H = np.block([[S, R[:, ERROR_DIM:-1]], [B, C[:, :-1]]])
        return MarginalPrior(0.5 * (H + H.T), -np.concatenate([R[:, -1], C[:, -1]]),
                             window.states[1], window.led_xy.copy())
    logger.warning("indefinite marginal block; dropping factors of epoch %d",
                   window.epoch_ids[0])
    if prior is None:
        return None
    hessian, gradient = prior.hessian.copy(), prior.gradient.copy()
    hessian[:ERROR_DIM], hessian[:, :ERROR_DIM], gradient[:ERROR_DIM] = 0.0, 0.0, 0.0
    return MarginalPrior(hessian, gradient, window.states[1], prior.led_lin)


def slide_and_marginalize(window: SlidingWindow, epoch_id: int, new_state: StateArrays,
                          pre: PreintegratedStack, rss: np.ndarray) -> StateArrays | None:
    """Append a new epoch; if the window is full, marginalize the oldest
    first.  Returns the state dropped (a row), or ``None``."""
    dropped = None
    if window.n_states >= window.config.window_size:
        dropped = window.states[0]
        window.prior = _marginalize_oldest(window)
        window.epoch_ids.pop(0)
        window.states = window.states[1:]
        window.imu = window.imu[1:]
        window.rss = window.rss[window.rss["state"] > 0]
        window.rss["state"] -= 1
    window.append(epoch_id, new_state, pre, rss)
    return dropped


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

    The covariance is the inverse of the LED block that
    :meth:`NormalEquations.eliminate` leaves after eliminating every state
    from ``H + 1e-12 I``, where ``H`` is the pass :func:`solve_lm` kept
    (or a fresh one).  A LED is flagged diverged when the optimizer failed
    to converge with its planar step still growing.  It is also flagged
    when its marginal covariance trace exceeds ``LED_COV_THRESHOLD`` (weak
    geometry; compare a DOP map).
    """
    out = {}
    if not window.led_ids:
        return out
    # The LED block's Schur complement is the inverse of their covariance.
    cov_full = np.linalg.inv(_equations(window).eliminate(1e-12)[-1][:, :-1])
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
    last_rho: float = math.nan  # gain ratio of the solve's last trial point
    stop: str = "max_iterations"  # LmReport.stop
    led_dop: dict = field(default_factory=dict)


class TightlyCoupledEstimator:
    """Feeds epochs through the sliding window and records trajectories.

    ``causal`` holds the real-time stream (the newest state right after
    each solve); ``smoothed`` holds each state's final value when it
    leaves the window (or at shutdown), i.e. the fixed-lag smoother
    output.  Both are :class:`StateArrays`.  ``led_table`` and
    ``led_init`` are as for :class:`SlidingWindow`.  Epochs are numbered
    from 0 in the order they arrive.
    """

    def __init__(self, config: EstimatorConfig, led_table: LedTable, rx: ReceiverConfig,
                 led_init: dict | None = None):
        self.config = config
        self.window = SlidingWindow(config, led_table, rx, led_init)
        self.causal = StateArrays.empty()
        self.smoothed = StateArrays.empty()
        self.diagnostics: list[EpochDiagnostics] = []

    def start(self, state0: StateArrays, rss0: np.ndarray) -> LmReport:
        """Open the window with ``state0`` (a row) and solve it.

        The window's prior starts diagonal: ``INITIAL_PRIOR_INFORMATION``
        on ``state0`` and, for each unknown LED, a weak prior of
        ``UNKNOWN_LED_PRIOR_SIGMA`` on its guess, which keeps a LED that no
        sample reaches solvable.
        """
        if self.window.n_states:
            raise RuntimeError("estimator already started")
        self.window.append(0, state0, None, rss0)
        led_info = np.full(2 * len(self.window.led_ids), 1.0 / UNKNOWN_LED_PRIOR_SIGMA**2)
        info = np.concatenate([INITIAL_PRIOR_INFORMATION, led_info])
        self.window.prior = MarginalPrior(np.diag(info), np.zeros(info.size),
                                          self.window.states[0], self.window.led_xy.copy())
        return self._solve_and_record(rss0)

    def step(self, pre: PreintegratedStack, rss: np.ndarray, timestamp: float) -> LmReport:
        """Add the epoch at ``timestamp``, joined to the newest state by the
        one-row IMU stack ``pre``, and solve the window."""
        window = self.window
        if not window.n_states:
            raise RuntimeError("estimator not started")
        reintegrations = self._reintegrate()
        seed = mechanize(pre, window.states[-1:], self.config.gravity_vec, [timestamp])
        dropped = slide_and_marginalize(window, window.epoch_ids[-1] + 1, seed, pre, rss)
        if dropped is not None:
            self.smoothed = self.smoothed.append(dropped)
        return self._solve_and_record(rss, reintegrations)

    def finalize(self) -> StateArrays:
        """Flush remaining window states into the smoothed trajectory."""
        self.smoothed = self.smoothed.append(self.window.states)
        return self.smoothed

    def _reintegrate(self) -> int:
        """Re-preintegrate each IMU factor whose start state's bias moved past
        ``BIAS_CORRECTION_WARN_ACC`` / ``BIAS_CORRECTION_WARN_GYRO`` from the
        factor's linearization bias, where the first-order correction
        degrades.  Runs between solves, so LM sees one fixed cost."""
        window = self.window
        states, imu = window.states, window.imu
        moved = np.flatnonzero(
            (np.linalg.norm(states.bias_acc[:-1] - imu.bias_acc, axis=1) > BIAS_CORRECTION_WARN_ACC)
            | (np.linalg.norm(states.bias_gyro[:-1] - imu.bias_gyro, axis=1)
               > BIAS_CORRECTION_WARN_GYRO))
        for k in moved.tolist():
            new = preintegrate(imu.stream[k], states.bias_acc[k], states.bias_gyro[k],
                               window.rx.dcm_body_to_vlp, self.config.imu_noise,
                               t_end=imu.t_end[k])
            window.imu = window.imu[:k].append(new).append(window.imu[k + 1:])
            window.equations = None
        return moved.size

    def _solve_and_record(self, rss: np.ndarray, reintegrations: int = 0) -> LmReport:
        report = solve_lm(self.window)
        last = self.window.states[-1]
        self.causal = self.causal.append(last)
        los = np.count_nonzero(rss["flag"] == SampleFlag.LOS)
        led_dop = {}
        if self.window.n_states >= 3:
            pts = self.window.states.position[:, :2]
            led_dop = {i: dop(pts, xy) for i, xy in zip(self.window.led_ids, self.window.led_xy)}
        self.diagnostics.append(EpochDiagnostics(
            epoch_id=self.window.epoch_ids[-1],
            timestamp=float(last.timestamps),
            cost=report.final_cost,
            iterations=len(report.iterations),
            converged=report.converged,
            los_count=los,
            flagged_count=len(rss) - los,
            reintegrations=reintegrations,
            last_rho=report.iterations[-1].rho if report.iterations else math.nan,
            stop=report.stop,
            led_dop=led_dop,
        ))
        return report
