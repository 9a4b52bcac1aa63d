"""Scenario parameters, zone grids, and the scenario config format.

Everything downstream (cost models, optimizer, simulator, CLI) consumes the
two frozen value types defined here: :class:`ScenarioParams` for demand,
pricing, and operating parameters, and :class:`ZoneGrid` for an M-by-N
partition of the rectangular service region.  The terminal sits at the
region's lower-left corner; zone (1, 1) is the cell touching it.

Units are hours, kilometres, and dollars throughout.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class ScenarioParams:
    """Demand, pricing, and operating parameters for one design scenario."""

    L: float  # region length, km (direction split into N columns)
    W: float  # region width, km (direction split into M rows)
    lambda_p: float  # outbound (pick-up) demand density, patrons/h/km^2
    lambda_d: float  # inbound (drop-off) demand density, patrons/h/km^2
    theta: float  # value of time, $/h
    alpha: float  # waiting-time discount for at-home waits, in [0, 1]
    pi_v_base: float  # distance cost intercept, $/veh-km
    pi_v_perK: float  # distance cost slope per seat, $/veh-km
    pi_m_base: float  # time cost intercept, $/veh-h
    pi_m_perK: float  # time cost slope per seat, $/veh-h
    pi_m_theta_mult: float  # time cost multiplier on theta (crew wages)
    tau_p: float  # dwell per pick-up stop, h
    tau_d: float  # dwell per drop-off stop, h
    tau_a: float  # alighting time per patron at the terminal, h
    tau_b: float  # boarding time per patron at the terminal, h
    v_l: float  # local / line-haul cruise speed, km/h
    t_ft: float  # feeder-to-trunk transfer walk time, h
    t_tf: float  # trunk-to-feeder transfer walk time, h
    H_min: float  # headway lower bound, h
    H_max: float  # headway upper bound, h
    H_t: float  # trunk service headway, h
    tau_0: float | None = None  # dwell loss per stop excl. boarding/alighting, h

    def __post_init__(self) -> None:
        positive = {
            "L": self.L, "W": self.W, "theta": self.theta, "v_l": self.v_l,
            "H_min": self.H_min, "H_max": self.H_max, "H_t": self.H_t,
        }
        for name, value in positive.items():
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        nonneg = {
            "lambda_p": self.lambda_p, "lambda_d": self.lambda_d,
            "pi_v_base": self.pi_v_base, "pi_v_perK": self.pi_v_perK,
            "pi_m_base": self.pi_m_base, "pi_m_perK": self.pi_m_perK,
            "pi_m_theta_mult": self.pi_m_theta_mult,
            "tau_p": self.tau_p, "tau_d": self.tau_d,
            "tau_a": self.tau_a, "tau_b": self.tau_b,
            "t_ft": self.t_ft, "t_tf": self.t_tf,
        }
        for name, value in nonneg.items():
            if not (value >= 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be non-negative and finite, got {value!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha!r}")
        if self.H_min > self.H_max:
            raise ValueError("H_min must not exceed H_max")
        if self.H_t > self.H_max:
            raise ValueError("H_t must not exceed H_max")
        if self.tau_0 is not None:
            # Dwell decomposition: pick-up dwell adds boarding, drop-off dwell
            # adds alighting.  Enforced only when tau_0 is supplied.
            if abs(self.tau_p - (self.tau_0 + self.tau_b)) > 1e-12:
                raise ValueError("tau_p must equal tau_0 + tau_b when tau_0 is given")
            if abs(self.tau_d - (self.tau_0 + self.tau_a)) > 1e-12:
                raise ValueError("tau_d must equal tau_0 + tau_a when tau_0 is given")

    @property
    def patrons_per_h(self) -> float:
        """Hourly patronage of the whole region, both directions."""
        return (self.lambda_p + self.lambda_d) * self.L * self.W

    def pi_v(self, K: int) -> float:
        """Vehicle distance cost, $/veh-km, for capacity-K vehicles."""
        return self.pi_v_base + self.pi_v_perK * K

    def pi_m(self, K: int) -> float:
        """Vehicle time cost, $/veh-h, for capacity-K vehicles."""
        return self.pi_m_base + self.pi_m_perK * K + self.pi_m_theta_mult * self.theta

    def replace(self, **changes: float) -> "ScenarioParams":
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class ZoneIndex:
    """1-based zone coordinates: m counts rows away from the terminal, n columns."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError(f"zone indices are 1-based, got ({self.m}, {self.n})")


@dataclass(frozen=True)
class ZoneGrid:
    """An M-by-N partition of the L-by-W region into identical l-by-w zones."""

    M: int
    N: int
    l: float  # zone length, km (= L / N)
    w: float  # zone width, km (= W / M)

    def __post_init__(self) -> None:
        if self.M < 1 or self.N < 1:
            raise ValueError("grid dimensions must be at least 1x1")
        if self.l <= 0 or self.w <= 0:
            raise ValueError("zone dimensions must be positive")

    @property
    def S(self) -> float:
        """Zone aspect ratio, max(l, w) / min(l, w) >= 1."""
        return max(self.l, self.w) / min(self.l, self.w)

    @property
    def area(self) -> float:
        return self.l * self.w

    def zones(self) -> list[ZoneIndex]:
        return [ZoneIndex(m, n) for m in range(1, self.M + 1) for n in range(1, self.N + 1)]


def make_grid(params: ScenarioParams, M: int, N: int) -> ZoneGrid:
    """Partition the scenario region into an M-by-N grid of identical zones."""
    if M < 1 or N < 1:
        raise ValueError("M and N must be positive integers")
    return ZoneGrid(M=M, N=N, l=params.L / N, w=params.W / M)


def line_haul_distance(grid: ZoneGrid, zone: ZoneIndex) -> float:
    """Distance from the terminal to the near corner of zone (m, n).

    The terminal sits at the region's lower-left corner, so the rectilinear
    line-haul leg to zone (m, n) is (m-1)*w + (n-1)*l.
    """
    if zone.m > grid.M or zone.n > grid.N:
        raise ValueError(f"zone {zone} outside {grid.M}x{grid.N} grid")
    return (zone.m - 1) * grid.w + (zone.n - 1) * grid.l


# Base-case parameters: 2 km x 2 km region, symmetric demand of 40
# patrons/h/km^2 each way, 25 km/h cruise speed, 5 min trunk headway.
TABLE2: dict[str, float] = {
    "L": 2.0,
    "W": 2.0,
    "lambda_p": 40.0,
    "lambda_d": 40.0,
    "theta": 20.0,
    "alpha": 0.3,
    "pi_v_base": 0.0314,
    "pi_v_perK": 0.0039,
    "pi_m_base": 2.068,
    "pi_m_perK": 0.108,
    "pi_m_theta_mult": 2.0,
    "tau_0": 26 / 3600,
    "tau_p": 30 / 3600,
    "tau_d": 28 / 3600,
    "tau_a": 2 / 3600,
    "tau_b": 4 / 3600,
    "v_l": 25.0,
    "t_ft": 3 / 60,
    "t_tf": 3 / 60,
    "H_min": 3 / 60,
    "H_max": 1.0,
    "H_t": 5 / 60,
}

PRESETS: dict[str, dict[str, float]] = {"table2": TABLE2}

_FIELD_NAMES = {f.name for f in dataclasses.fields(ScenarioParams)}
_REQUIRED_FIELDS = _FIELD_NAMES - {"tau_0", "tau_p", "tau_d"}


def _parse_value(text: str) -> float:
    """Parse a config scalar; plain floats and rationals like 26/3600 are accepted."""
    text = text.strip()
    if "/" in text:
        return float(Fraction(text))
    return float(text)


def load_scenario(config_text: str) -> ScenarioParams:
    """Build a :class:`ScenarioParams` from flat key-value config text.

    Grammar: one ``key = value`` pair per line, ``#`` starts a comment, blank
    lines ignored.  A ``preset = <name>`` line seeds every field from the named
    preset; later keys override.  Values may be decimal or small rationals
    (``26/3600``).  ``tau_p``/``tau_d`` may be omitted when ``tau_0`` is given,
    in which case they are derived as ``tau_0 + tau_b`` and ``tau_0 + tau_a``.
    """
    values: dict[str, float] = {}
    for lineno, raw in enumerate(config_text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key == "preset":
            if val not in PRESETS:
                raise ValueError(f"line {lineno}: unknown preset {val!r}")
            values.update(PRESETS[val])
            continue
        if key not in _FIELD_NAMES:
            raise ValueError(f"line {lineno}: unknown parameter {key!r}")
        try:
            values[key] = _parse_value(val)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {lineno}: bad value for {key}: {val!r}") from exc

    if "tau_p" not in values and "tau_0" in values and "tau_b" in values:
        values["tau_p"] = values["tau_0"] + values["tau_b"]
    if "tau_d" not in values and "tau_0" in values and "tau_a" in values:
        values["tau_d"] = values["tau_0"] + values["tau_a"]

    missing = sorted((_REQUIRED_FIELDS | {"tau_p", "tau_d"}) - set(values))
    if missing:
        raise ValueError(f"missing scenario parameters: {', '.join(missing)}")
    return ScenarioParams(**values)


def table2_params() -> ScenarioParams:
    """The base-case scenario used throughout the experiments."""
    return ScenarioParams(**TABLE2)
