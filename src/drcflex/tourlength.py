"""Expected local-tour lengths: the fitted k* law, its calibration, and swaths.

Optimal (fully-flexible) tours over q random stops in an l-by-w zone follow
the classic scaling E[length] = k*(q, S) * sqrt(q*l*w), with the coefficient
modelled as a five-parameter Weibull-like curve in q and the zone aspect
ratio S:

    k*(q, S) = (beta1*S + beta2) * q**beta3 * exp(beta4 * q**beta5)

``KStarModel.units`` evaluates that term for ``kstar``, the fit and every
tour-length law; the laws of earlier studies are ``expectations.PRIOR_LAWS``.

The module calibrates those coefficients by solving exact closed tours over
uniform points in unit-area rectangles, and also provides the serpentine
(swath) tour-length model used by semi-flexible routing, including the
enumeration of swath widths that tile a zone.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .tsp import _resident_layers, closed_tour_lengths_batch


@dataclass(frozen=True)
class KStarModel:
    """Coefficients of the tour-length scaling constant k*(q, S)."""

    beta1: float
    beta2: float
    beta3: float
    beta4: float
    beta5: float

    def units(self, q, S, offset: float = 0.0):
        """(beta1*S + beta2) * q**(beta3 + offset) * exp(beta4 * q**beta5), with numpy.

        ``q`` and ``S`` may be floats or arrays.  Offset 0 is k*(q, S); offset
        1/2 is the tour over q stops in units of sqrt(zone area).
        """
        size = self.beta1 * S + self.beta2
        return size * np.power(q, self.beta3 + offset) * np.exp(self.beta4 * np.power(q, self.beta5))


# Coefficients fitted to the Manhattan-metric calibration grid (q = 2..15,
# S = 1..3).  These are the values used by all base-case experiments.
TABLE1_MODEL = KStarModel(
    beta1=0.1102, beta2=1.4569, beta3=-0.1472, beta4=-2.5508, beta5=-2.6396
)


def kstar(model: KStarModel, q: float, S: float) -> float:
    """Tour-length coefficient k*(q, S); q may be fractional (expected counts)."""
    if not (math.isfinite(q) and q >= 1):
        raise ValueError(f"q must be finite and at least 1, got {q}")
    if not (math.isfinite(S) and S >= 1):
        raise ValueError(f"aspect ratio S must be finite and at least 1, got {S}")
    return float(model.units(q, S))


# ---------------------------------------------------------------------------
# Serpentine (swath) tours
# ---------------------------------------------------------------------------

# A feasible swath width cuts one side of the zone into at most this many strips.
MAX_STRIPS = 4


@dataclass(frozen=True)
class SwathConfig:
    """A feasible swath width for a zone: w0 tiles one dimension exactly."""

    w0: float
    n_strips: int
    along: str  # "l" or "w": the dimension the strips run along

    def __post_init__(self) -> None:
        if self.w0 <= 0 or self.n_strips < 1 or self.along not in ("l", "w"):
            raise ValueError(f"invalid swath configuration {self!r}")


def swath_tour_length(q: float, area: float, w0: float) -> float:
    """Expected serpentine tour length: q*w0/3 lateral + area/w0 longitudinal."""
    if w0 <= 0:
        raise ValueError("swath width must be positive")
    if area <= 0:
        raise ValueError("zone area must be positive")
    if q < 0:
        raise ValueError("stop count must be non-negative")
    return q * w0 / 3.0 + area / w0


def unconstrained_swath_optimum(q: float, area: float) -> tuple[float, float]:
    """(w0*, length*) minimizing the swath tour with w0 unconstrained.

    The optimum w0* = sqrt(3*area/q) yields length 2*sqrt(q*area/3), i.e.
    about 1.15*sqrt(q*area).
    """
    if q <= 0:
        raise ValueError("stop count must be positive")
    w0 = math.sqrt(3.0 * area / q)
    return w0, 2.0 * math.sqrt(q * area / 3.0)


def feasible_swath_widths(l: float, w: float) -> list[SwathConfig]:
    """Swath widths that cut a zone into 1..``MAX_STRIPS`` equal strips.

    Candidates are l/i and w/i for i = 1..MAX_STRIPS, kept only when the
    width does not exceed the zone's shorter side.  Duplicates (the same
    width arising from both dimensions) collapse to the orientation with
    fewer strips.  Sorted by decreasing width.
    """
    if l <= 0 or w <= 0:
        raise ValueError("zone dimensions must be positive")
    short = min(l, w)
    best: dict[float, SwathConfig] = {}
    for i in range(1, MAX_STRIPS + 1):
        for dim, other_name in ((l, "w"), (w, "l")):
            w0 = dim / i
            if w0 > short * (1 + 1e-12):
                continue
            # strips of width w0 stack across `dim`, running along the other side
            cfg = SwathConfig(w0=w0, n_strips=i, along=other_name)
            key = round(w0, 12)
            if key not in best or cfg.n_strips < best[key].n_strips:
                best[key] = cfg
    return sorted(best.values(), key=lambda c: -c.w0)


@dataclass(frozen=True)
class SwathGap:
    """Constrained-vs-unconstrained swath comparison for one stop count."""

    q: int
    w0: float  # best feasible width for the bare serpentine length
    tour_length: float  # q*w0/3 + A/w0 at that width
    unconstrained_length: float  # 2*sqrt(q*A/3)
    gap_pct: float  # (tour_length / unconstrained - 1) * 100
    realizable_w0: float  # best feasible width including the w0/2 end leg
    realizable_length: float  # q*w0/3 + A/w0 + w0/2
    realizable_gap_pct: float


def constrained_swath_mape(l: float, w: float, q_values: Iterable[int]) -> list[SwathGap]:
    """Percentage gaps between feasible swath tours and the 1.15*sqrt(qA) ideal.

    Two gaps are reported per q: one for the bare serpentine length (the
    quantity the unconstrained optimum bounds), and one for the realizable
    tour that also pays the w0/2 end leg back to the zone corner, which is
    the length the cost model actually charges per dispatch.
    """
    configs = feasible_swath_widths(l, w)
    if not configs:
        raise ValueError(f"no feasible swath width for zone {l} x {w}")
    area = l * w
    out = []
    for q in q_values:
        if q < 1:
            raise ValueError("q values must be positive")
        _, ideal = unconstrained_swath_optimum(q, area)
        bare = min(configs, key=lambda c: swath_tour_length(q, area, c.w0))
        bare_len = swath_tour_length(q, area, bare.w0)
        real = min(configs, key=lambda c: swath_tour_length(q, area, c.w0) + c.w0 / 2)
        real_len = swath_tour_length(q, area, real.w0) + real.w0 / 2
        out.append(
            SwathGap(
                q=q,
                w0=bare.w0,
                tour_length=bare_len,
                unconstrained_length=ideal,
                gap_pct=(bare_len / ideal - 1.0) * 100.0,
                realizable_w0=real.w0,
                realizable_length=real_len,
                realizable_gap_pct=(real_len / ideal - 1.0) * 100.0,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Monte Carlo calibration of the k* coefficients
# ---------------------------------------------------------------------------


# A cell stops once, past min_instances, its running mean has drifted by at most
# MEAN_DRIFT over the last batch and its standard error is at most SE_TARGET.
MEAN_DRIFT = 0.01
SE_TARGET = 0.005


@dataclass(frozen=True)
class CalibrationGrid:
    """Sampling plan for the k* calibration."""

    q_values: tuple[int, ...] = tuple(range(2, 16))
    aspect_ratios: tuple[float, ...] = (1.0, 1.5, 2.0, 3.0)
    min_instances: int = 500
    max_instances: int = 50_000
    batch_size: int = 250

    def __post_init__(self) -> None:
        if not self.q_values or min(self.q_values) < 2:
            raise ValueError("q_values must all be at least 2")
        if max(self.q_values) > 20:
            raise ValueError("q_values beyond 20 exceed the exact solver capacity")
        if not self.aspect_ratios or not all(math.isfinite(S) and S >= 1 for S in self.aspect_ratios):
            raise ValueError(f"aspect_ratios must be finite and at least 1, got {self.aspect_ratios}")
        if self.min_instances < 1 or self.max_instances < self.min_instances:
            raise ValueError("need 1 <= min_instances <= max_instances")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")


@dataclass(frozen=True)
class CalibrationCell:
    """Converged Monte Carlo estimate of k* for one (q, S) grid cell."""

    q: int
    S: float
    mean_kstar: float
    std_kstar: float
    n_instances: int


@dataclass(frozen=True)
class CalibrationResult:
    cells: tuple[CalibrationCell, ...]
    model: KStarModel
    fit_mape_pct: float  # MAPE of the fitted model against its own grid
    seed: int

    def cell(self, q: int, S: float) -> CalibrationCell:
        for c in self.cells:
            if c.q == q and abs(c.S - S) < 1e-9:
                return c
        raise KeyError(f"no calibration cell for q={q}, S={S}")

    def to_csv(self, path) -> None:
        """Grid means in long form, followed by a coefficient block."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["q", "S", "mean_kstar", "n_instances"])
            for c in self.cells:
                writer.writerow([c.q, c.S, f"{c.mean_kstar:.6f}", c.n_instances])
            for name in ("beta1", "beta2", "beta3", "beta4", "beta5"):
                writer.writerow([name, "", f"{getattr(self.model, name):.6f}", ""])


# The DP's precision for calibration tours: float32 halves its memory at a ~1e-6
# relative accuracy cost.
_TOUR_DTYPE = np.float32


def _cell_batch(q: int, grid: CalibrationGrid) -> int:
    """Tours per DP call of a q-stop cell, the last call of a cell excepted.

    The cap fixes the RNG draw sizes and so each cell's stopping point.  At the cap
    the DP's two live float32 layers (at widest C(q-1, q/2)*q/2 pairs a tour; resident
    for a whole calibration, see ``calibrate_kstar``) and its (q, 20, B) distance rows
    stay under 27 MB up to q = 17 and reach 237 MB at q = 20; each piece of a candidate
    column or of the half-tour join adds two temporaries of under 128 KiB.  The one
    index table, kept for the process and built for the largest q so far, adds 6.6 MiB
    at q = 17 and 59.6 MiB at q = 20, and each q's join index 0.4 and 3.5 MiB.
    """
    return min(grid.batch_size, max(32, (1 << 22) >> q), grid.max_instances)


def _simulate_cell(q: int, S: float, grid: CalibrationGrid, rng: np.random.Generator) -> CalibrationCell:
    """Run exact tours over unit-area aspect-S rectangles until the mean settles."""
    long_side = math.sqrt(S)
    short_side = 1.0 / long_side
    scale = np.array([long_side, short_side])
    sqrt_q = math.sqrt(q)
    samples: list[np.ndarray] = []
    n = 0
    prev_mean = None
    while True:
        batch = min(_cell_batch(q, grid), grid.max_instances - n)
        pts = rng.random((batch, q, 2)) * scale
        lengths = closed_tour_lengths_batch(pts, dtype=_TOUR_DTYPE)
        samples.append(lengths.astype(np.float64) / sqrt_q)
        n += batch
        ks = np.concatenate(samples) if len(samples) > 1 else samples[0]
        mean = float(ks.mean())
        if n >= grid.max_instances:
            break
        if n >= grid.min_instances and prev_mean is not None:
            se = float(ks.std(ddof=1)) / math.sqrt(n)
            if abs(mean - prev_mean) <= MEAN_DRIFT and se <= SE_TARGET:
                break
        prev_mean = mean
    return CalibrationCell(q=q, S=S, mean_kstar=mean, std_kstar=float(ks.std(ddof=1)), n_instances=n)


# Relative step of the fit's forward differences.  The residuals are model/mean - 1,
# so their rounding error is absolute, about 1e-16.  With MINPACK's default step,
# sqrt(machine epsilon), that error moves the fitted coefficients of a 10-cell grid
# by about 1e-6; with 1e-7 they land within about 1e-7 of the optimum.
_DIFF_STEP = 1e-7
# Stop once a step changes the scaled coefficients, or the sum of squares, by at most this.
_FIT_TOL = 1e-12


def _levenberg_marquardt(residuals: Callable[[np.ndarray], np.ndarray], x0: np.ndarray) -> np.ndarray:
    """Coefficients that minimize the sum of squared ``residuals``, starting from ``x0``.

    Levenberg-Marquardt as MINPACK's lmdif runs it (Moré 1978): a forward-difference
    Jacobian J, each column scaled by the largest norm it has had (D), and damping mu
    adapted to the gain ratio (Nielsen's rule).  Each step solves [J; sqrt(mu) D] p = [-f; 0]
    by least squares, which stays well posed where J's columns are dependent, as
    beta1 and beta2 are on a grid with one aspect ratio.  The solve stops once a step
    moves D*x by at most ``_FIT_TOL`` of its norm, or an accepted step reduces the sum
    of squares by at most ``_FIT_TOL`` of it (as predicted and as found), or after
    100*(n+1) evaluations of the residuals, the starting point's included; as in
    scipy's ``lm``, the Jacobian's evaluations are not counted.
    """
    n = x0.size
    max_nfev = 100 * (n + 1)
    x = x0.astype(float)
    f = residuals(x)
    if not np.isfinite(f).all():
        raise ValueError("the fit's residuals are not finite at its starting point")
    nfev = 1
    cost = f @ f
    col_max = np.zeros(n)
    mu, nu = 1e-3, 2.0
    while nfev < max_nfev:
        h = _DIFF_STEP * np.maximum(np.abs(x), 1.0)
        jac = np.empty((f.size, n))
        for j in range(n):
            xj = x.copy()
            xj[j] += h[j]
            jac[:, j] = (residuals(xj) - f) / (xj[j] - x[j])
        col_max = np.maximum(col_max, np.linalg.norm(jac, axis=0))
        d = np.where(col_max > 0, col_max, 1.0)
        while nfev < max_nfev:
            damped = np.vstack((jac, np.diag(math.sqrt(mu) * d)))
            step = np.linalg.lstsq(damped, np.concatenate((-f, np.zeros(n))), rcond=None)[0]
            f_new = residuals(x + step)
            nfev += 1
            cost_new = f_new @ f_new
            predicted = cost - np.sum((f + jac @ step) ** 2)
            small_step = np.linalg.norm(d * step) <= _FIT_TOL * np.linalg.norm(d * x)
            if predicted > 0 and cost_new < cost:  # false for non-finite residuals too
                gain = (cost - cost_new) / predicted
                small_cut = max(cost - cost_new, predicted) <= _FIT_TOL * cost
                x, f, cost = x + step, f_new, cost_new
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
                nu = 2.0
                if small_step or small_cut:
                    return x
                break
            if small_step:
                return x
            mu *= nu
            nu *= 2.0
    return x


def fit_kstar_model(cells: Sequence[CalibrationCell], x0: KStarModel = TABLE1_MODEL) -> KStarModel:
    """Least-squares fit of the five k* coefficients to grid means, starting from ``x0``.

    Residuals are relative (model / mean - 1), so the fit targets the same
    MAPE-style objective it is judged by.  The solver is Levenberg-Marquardt with a
    forward-difference Jacobian and MINPACK's column scaling; it stops once a step
    changes the scaled coefficients or the sum of squares by at most 1e-12 relative,
    or after 600 evaluations of the residuals outside the Jacobian
    (``_levenberg_marquardt``).
    """
    if not cells:
        raise ValueError("the k* fit needs at least one calibration cell")
    for c in cells:
        if not (math.isfinite(c.mean_kstar) and c.mean_kstar > 0):
            raise ValueError(
                f"mean_kstar of cell (q={c.q}, S={c.S}) must be finite and positive, got {c.mean_kstar}"
            )
    qs = np.array([c.q for c in cells], dtype=float)
    ss = np.array([c.S for c in cells], dtype=float)
    ys = np.array([c.mean_kstar for c in cells], dtype=float)

    def residuals(beta: np.ndarray) -> np.ndarray:
        return KStarModel(*beta).units(qs, ss) / ys - 1.0

    start = np.array([x0.beta1, x0.beta2, x0.beta3, x0.beta4, x0.beta5])
    return KStarModel(*(float(v) for v in _levenberg_marquardt(residuals, start)))


def grid_mape(predict: Callable[[float, float], float], cells: Sequence[CalibrationCell]) -> float:
    """Mean absolute percentage error of a k* predictor over calibration cells."""
    errs = [abs(predict(c.q, c.S) - c.mean_kstar) / c.mean_kstar for c in cells]
    return 100.0 * float(np.mean(errs))


def calibrate_kstar(grid: CalibrationGrid = CalibrationGrid(), seed: int = 0) -> CalibrationResult:
    """Monte Carlo calibration of k* over the (q, S) grid, then the model fit.

    Each cell draws from its own RNG stream derived from (seed, q-index,
    S-index), so cells converge to identical estimates regardless of the
    order in which they are evaluated.  The DP's layers stay resident while
    the cells run, in one buffer sized for the grid's widest layer (5.5 MB on
    q = 2..12, 24.6 MB on the default grid), released before the fit.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    cells = []
    with _resident_layers(((q, _cell_batch(q, grid)) for q in grid.q_values), _TOUR_DTYPE):
        for qi, q in enumerate(grid.q_values):
            for si, S in enumerate(grid.aspect_ratios):
                rng = np.random.default_rng(np.random.SeedSequence((seed, qi, si)))
                cells.append(_simulate_cell(q, S, grid, rng))
    model = fit_kstar_model(cells)
    mape = grid_mape(lambda q, S: kstar(model, q, S), cells)
    return CalibrationResult(cells=tuple(cells), model=model, fit_mape_pct=mape, seed=seed)
