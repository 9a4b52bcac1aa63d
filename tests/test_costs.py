"""Tests for the per-zone cost books and design feasibility checks."""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drcflex import (
    FULLY_FLEXIBLE,
    SEMI_FLEXIBLE,
    DesignSolution,
    InfeasibleDesignError,
    ScenarioParams,
    TABLE1_MODEL,
    ZoneIndex,
    make_grid,
    run_validation,
    table2_params,
    total_generalized_cost,
)
from drcflex.costs import (
    DIRECTIONS,
    LOW_OCCUPANCY_MEAN,
    STRATEGIES,
    LowOccupancyWarning,
    ZoneBooks,
    ZoneCostTerms,
    ZoneDesign,
    ZoneShape,
    capacity_ok,
    cost_books,
    ff_agency_cost_direction,
    ff_local_tour_cost_zone,
    ff_wait_cost_zone,
    headway_cap_from_capacity,
    line_haul_cost_zone,
    mean_occupancy,
    sf_agency_cost_direction,
    sf_local_tour_cost_zone,
    sf_wait_cost_zone,
    transfer_cost_zone,
    validate_design,
    zone_books,
)
from drcflex.expectations import as_tour_law
from drcflex.params import line_haul_distance
from drcflex.tourlength import feasible_swath_widths

FIVE_MIN = 5 / 60


def uniform_zones(grid, H: float, gamma: int = 1):
    return tuple(ZoneDesign(z=z, H_p=H, H_d=gamma * FIVE_MIN, gamma=gamma) for z in grid.zones())


@pytest.fixture()
def ff_design(table2: ScenarioParams) -> DesignSolution:
    grid = make_grid(table2, 2, 2)
    return DesignSolution(
        strategy=FULLY_FLEXIBLE, grid=grid, K=8, zones=uniform_zones(grid, FIVE_MIN)
    )


@pytest.fixture()
def sf_design(table2: ScenarioParams) -> DesignSolution:
    grid = make_grid(table2, 2, 2)
    return DesignSolution(
        strategy=SEMI_FLEXIBLE, grid=grid, K=8, zones=uniform_zones(grid, FIVE_MIN), w0=0.5
    )


class TestDesignTypes:
    def test_zone_design_validation(self) -> None:
        with pytest.raises(ValueError, match="headways"):
            ZoneDesign(z=ZoneIndex(1, 1), H_p=0.0, H_d=FIVE_MIN, gamma=1)
        with pytest.raises(ValueError, match="gamma"):
            ZoneDesign(z=ZoneIndex(1, 1), H_p=FIVE_MIN, H_d=FIVE_MIN, gamma=0)

    def test_strategy_and_capacity_validation(self, table2: ScenarioParams) -> None:
        grid = make_grid(table2, 1, 1)
        zones = uniform_zones(grid, FIVE_MIN)
        with pytest.raises(ValueError, match="strategy"):
            DesignSolution(strategy="fixed_route", grid=grid, K=8, zones=zones)
        with pytest.raises(ValueError, match="K"):
            DesignSolution(strategy=FULLY_FLEXIBLE, grid=grid, K=0, zones=zones)

    def test_zone_coverage_enforced(self, table2: ScenarioParams) -> None:
        grid = make_grid(table2, 2, 2)
        partial = uniform_zones(grid, FIVE_MIN)[:3]
        with pytest.raises(ValueError, match="cover every grid zone"):
            DesignSolution(strategy=FULLY_FLEXIBLE, grid=grid, K=8, zones=partial)
        row = make_grid(table2, 1, 2)
        twice = (*uniform_zones(row, FIVE_MIN), uniform_zones(row, FIVE_MIN)[0])  # (1, 1) listed twice
        with pytest.raises(ValueError, match="cover every grid zone"):
            DesignSolution(strategy=FULLY_FLEXIBLE, grid=row, K=20, zones=twice)

    def test_w0_presence_rule(self, table2: ScenarioParams) -> None:
        grid = make_grid(table2, 1, 1)
        zones = uniform_zones(grid, FIVE_MIN)
        with pytest.raises(ValueError, match="w0"):
            DesignSolution(strategy=FULLY_FLEXIBLE, grid=grid, K=8, zones=zones, w0=0.5)
        with pytest.raises(ValueError, match="w0"):
            DesignSolution(strategy=SEMI_FLEXIBLE, grid=grid, K=8, zones=zones)

    def test_zone_lookup(self, ff_design: DesignSolution) -> None:
        assert ff_design.zone(ZoneIndex(2, 1)).z == ZoneIndex(2, 1)
        with pytest.raises(KeyError):
            ff_design.zone(ZoneIndex(3, 3))


class TestBookkeeping:
    @pytest.mark.parametrize("which", ["ff", "sf"])
    def test_totals_equal_sum_of_books(
        self, table2: ScenarioParams, ff_design: DesignSolution, sf_design: DesignSolution, which: str
    ) -> None:
        design = ff_design if which == "ff" else sf_design
        bd = total_generalized_cost(table2, design, TABLE1_MODEL)
        book_sum = sum(getattr(bd, f) for f in ZoneCostTerms.FIELDS)
        assert bd.GC == pytest.approx(book_sum, abs=1e-9)
        zone_sum = sum(t.total for t in bd.per_zone.values())
        assert bd.GC == pytest.approx(zone_sum, abs=1e-9)
        assert bd.user + bd.agency == pytest.approx(bd.GC, abs=1e-9)
        for field in ZoneCostTerms.FIELDS:
            assert getattr(bd, field) == pytest.approx(
                sum(getattr(t, field) for t in bd.per_zone.values()), abs=1e-12
            )

    def test_per_patron_conversion(self, table2: ScenarioParams, ff_design: DesignSolution) -> None:
        bd = total_generalized_cost(table2, ff_design, TABLE1_MODEL)
        patrons = (table2.lambda_p + table2.lambda_d) * table2.L * table2.W
        assert bd.gc_per_patron_min == pytest.approx(bd.GC * 60.0 / patrons)



class TestBuiltinResults:
    """Public results hold builtin numbers, never numpy scalars, whose reprs differ."""

    @staticmethod
    def assert_builtin(values: dict, where: str) -> None:
        bad = {name: type(v).__name__ for name, v in values.items() if type(v) not in (float, int)}
        assert not bad, f"{where}: {bad}"

    @pytest.mark.parametrize("which", ["ff", "sf"])
    def test_costs_reports_and_book_views(
        self, table2: ScenarioParams, ff_design: DesignSolution, sf_design: DesignSolution, which: str
    ) -> None:
        design = ff_design if which == "ff" else sf_design
        bd = total_generalized_cost(table2, design, TABLE1_MODEL)
        self.assert_builtin(
            {f.name: getattr(bd, f.name) for f in dataclasses.fields(bd) if f.name != "per_zone"}, "CostBreakdown"
        )
        for key, terms in bd.per_zone.items():
            self.assert_builtin({"m": key[0], "n": key[1], **dataclasses.asdict(terms)}, f"per_zone {key}")
        report = run_validation(table2, design, TABLE1_MODEL, min_runs=50, seed=11)
        self.assert_builtin(dataclasses.asdict(report), "ValidationReport")

        grid, zd, K, w0 = design.grid, design.zone(ZoneIndex(2, 2)), design.K, design.w0
        views = {
            "wait": (
                ff_wait_cost_zone(table2, grid, zd, TABLE1_MODEL) if which == "ff"
                else sf_wait_cost_zone(table2, grid, zd, w0),
            ),
        }
        for d in DIRECTIONS:
            views[f"line_haul {d}"] = (line_haul_cost_zone(table2, grid, zd, d),)
            views[f"transfer {d}"] = (transfer_cost_zone(table2, grid, zd, d),)
            if which == "ff":
                views[f"tour {d}"] = (ff_local_tour_cost_zone(table2, grid, zd, TABLE1_MODEL, d),)
                views[f"agency {d}"] = ff_agency_cost_direction(table2, grid, zd, TABLE1_MODEL, K, d)
            else:
                views[f"tour {d}"] = (sf_local_tour_cost_zone(table2, grid, zd, w0, d),)
                views[f"agency {d}"] = sf_agency_cost_direction(table2, grid, zd, w0, K, d)
        for name, values in views.items():
            self.assert_builtin(dict(enumerate(values)), name)


class TestHandValues:
    """Book-by-book checks against independently worked examples.

    All use the base case with every headway at 5 minutes: mu = 40 * (1/12)
    * 1 = 10/3 per dispatch and E[Q^2] = mu^2 + mu = 130/9 in each zone and
    direction.
    """

    def test_mean_occupancy(self, table2: ScenarioParams, ff_design: DesignSolution) -> None:
        zd = ff_design.zone(ZoneIndex(1, 1))
        assert mean_occupancy(table2, ff_design.grid, zd, "outbound") == pytest.approx(10 / 3)

    def test_line_haul_book(self, table2: ScenarioParams, ff_design: DesignSolution) -> None:
        # zone (1, 2): D = 1 km, so D / (H * v) * mu = 12/25 * 10/3 = 1.6 h/h
        zd = ff_design.zone(ZoneIndex(1, 2))
        assert line_haul_cost_zone(table2, ff_design.grid, zd, "outbound") == pytest.approx(1.6)
        corner = ff_design.zone(ZoneIndex(1, 1))
        assert line_haul_cost_zone(table2, ff_design.grid, corner, "outbound") == 0.0

    def test_outbound_transfer_book(self, table2: ScenarioParams, ff_design: DesignSolution) -> None:
        # mu/H * (t_ft + H_t/2) + tau_a/(2H) * E[Q^2]
        #   = 40 * (0.05 + 1/24) + (2/3600) * 6 * 130/9
        zd = ff_design.zone(ZoneIndex(1, 1))
        got = transfer_cost_zone(table2, ff_design.grid, zd, "outbound")
        assert got == pytest.approx(40 * (0.05 + 1 / 24) + (2 / 3600) * 6 * 130 / 9, abs=1e-12)

    def test_inbound_transfer_book_no_sync_penalty_at_gamma_1(
        self, table2: ScenarioParams, ff_design: DesignSolution
    ) -> None:
        zd = ff_design.zone(ZoneIndex(1, 1))
        got = transfer_cost_zone(table2, ff_design.grid, zd, "inbound")
        assert got == pytest.approx(40 * 0.05 + (4 / 3600) * 6 * 130 / 9, abs=1e-12)

    def test_sf_wait_book(self, table2: ScenarioParams, sf_design: DesignSolution) -> None:
        # alpha * (mu/2 + mu * w0 / (3 v H)) = 0.3 * (5/3 + 10/3 * 0.5/6.25)
        zd = sf_design.zone(ZoneIndex(1, 1))
        got = sf_wait_cost_zone(table2, sf_design.grid, zd, 0.5)
        assert got == pytest.approx(0.58, abs=1e-12)

    def test_sf_outbound_tour_book(self, table2: ScenarioParams, sf_design: DesignSolution) -> None:
        # ((A/(v w0) + w0/(2v)) * mu + (w0/(3v) + tau_p) * E[Q^2]) / (2H) = 3.1
        zd = sf_design.zone(ZoneIndex(1, 1))
        got = sf_local_tour_cost_zone(table2, sf_design.grid, zd, 0.5, "outbound")
        assert got == pytest.approx(3.1, abs=1e-12)

    def test_ff_wait_is_discounted_tour_plus_half_batch(
        self, table2: ScenarioParams, ff_design: DesignSolution
    ) -> None:
        # C_W = alpha * (mu/2 + C_Tp): the waiting rider sees the same half
        # tour and boarding queue the riding patron does, plus half the batch.
        zd = ff_design.zone(ZoneIndex(2, 2))
        c_w = ff_wait_cost_zone(table2, ff_design.grid, zd, TABLE1_MODEL)
        c_tp = ff_local_tour_cost_zone(table2, ff_design.grid, zd, TABLE1_MODEL, "outbound")
        assert c_w == pytest.approx(table2.alpha * (10 / 3 / 2 + c_tp), abs=1e-12)

    def test_ff_tour_book_from_parts(self, table2: ScenarioParams, ff_design: DesignSolution) -> None:
        zd = ff_design.zone(ZoneIndex(1, 1))
        law = as_tour_law(TABLE1_MODEL)
        mu = 10 / 3
        half_tour = law.rider_tour_units(mu, 1.0) / (2 * FIVE_MIN * table2.v_l)
        dwell = table2.tau_p / (2 * FIVE_MIN) * (mu * mu + mu)
        got = ff_local_tour_cost_zone(table2, ff_design.grid, zd, TABLE1_MODEL, "outbound")
        assert got == pytest.approx(half_tour + dwell, abs=1e-12)

    def test_sf_wait_below_ff_wait_at_equal_headways(
        self, table2: ScenarioParams, ff_design: DesignSolution
    ) -> None:
        # Curbside pick-up spares the patron the dispatch-to-door leg.
        zd = ff_design.zone(ZoneIndex(1, 1))
        sf = sf_wait_cost_zone(table2, ff_design.grid, zd, 0.5)
        ff = ff_wait_cost_zone(table2, ff_design.grid, zd, TABLE1_MODEL)
        assert sf < ff


class TestMonotonicity:
    def test_faster_cruise_lowers_cost(self, table2: ScenarioParams, ff_design: DesignSolution) -> None:
        base = total_generalized_cost(table2, ff_design, TABLE1_MODEL).GC
        faster = total_generalized_cost(table2.replace(v_l=30.0), ff_design, TABLE1_MODEL).GC
        assert faster < base

    def test_longer_dwells_raise_cost(self, table2: ScenarioParams, sf_design: DesignSolution) -> None:
        base = total_generalized_cost(table2, sf_design, TABLE1_MODEL).GC
        slow = table2.replace(tau_0=None, tau_p=60 / 3600)
        assert total_generalized_cost(slow, sf_design, TABLE1_MODEL).GC > base

    def test_wait_discount_scales_cost(self, table2: ScenarioParams, ff_design: DesignSolution) -> None:
        base = total_generalized_cost(table2, ff_design, TABLE1_MODEL)
        heavier = total_generalized_cost(table2.replace(alpha=0.9), ff_design, TABLE1_MODEL)
        assert heavier.C_W == pytest.approx(3 * base.C_W, rel=1e-12)
        assert heavier.GC > base.GC


class TestCapacity:
    def test_capacity_rule_boundary(self) -> None:
        # mu + 2*sqrt(mu) at mu = 4 is exactly 8
        assert capacity_ok(4.0, 8)
        assert not capacity_ok(4.1, 8)
        assert capacity_ok(0.0, 1)
        # arrays are judged element by element, as the search judges its gammas
        np.testing.assert_array_equal(capacity_ok(np.array([0.0, 4.0, 4.1]), 8), [True, True, False])

    @pytest.mark.parametrize("lam, l, w", [(40.0, 1.0, 1.0), (2.0, 0.5, 4.0), (13.7, 0.3, 0.7), (0.25, 2.0, 3.0)])
    def test_headway_cap_is_the_capacity_rule_inverted(self, lam: float, l: float, w: float) -> None:
        # the occupancy at the cap fits K; a hair past the cap no longer does
        for K in range(1, 21):
            mu = lam * headway_cap_from_capacity(lam, l, w, K) * (l * w)
            assert capacity_ok(mu, K), K
            assert not capacity_ok(mu * (1.0 + 1e-9), K), K


class TestValidateDesign:
    def test_accepts_feasible_designs(
        self, table2: ScenarioParams, ff_design: DesignSolution, sf_design: DesignSolution
    ) -> None:
        validate_design(table2, ff_design)
        validate_design(table2, sf_design)

    def test_outbound_headway_bounds(self, table2: ScenarioParams, ff_design: DesignSolution) -> None:
        grid = ff_design.grid
        zones = list(ff_design.zones)
        zones[0] = ZoneDesign(z=zones[0].z, H_p=1 / 60, H_d=FIVE_MIN, gamma=1)
        bad = DesignSolution(strategy=FULLY_FLEXIBLE, grid=grid, K=8, zones=tuple(zones))
        with pytest.raises(InfeasibleDesignError, match="outbound_headway_bounds") as exc:
            validate_design(table2, bad)
        assert exc.value.constraint == "outbound_headway_bounds"
        assert exc.value.zone == zones[0].z

    def test_inbound_headway_bounds(self, table2: ScenarioParams, ff_design: DesignSolution) -> None:
        grid = ff_design.grid
        zones = list(ff_design.zones)
        # gamma * H_t = 65 min exceeds H_max = 60 min
        zones[0] = ZoneDesign(z=zones[0].z, H_p=FIVE_MIN, H_d=13 * FIVE_MIN, gamma=13)
        bad = DesignSolution(strategy=FULLY_FLEXIBLE, grid=grid, K=8, zones=tuple(zones))
        with pytest.raises(InfeasibleDesignError, match="inbound_headway_bounds"):
            validate_design(table2, bad)

    def test_inbound_sync_rule(self, table2: ScenarioParams, ff_design: DesignSolution) -> None:
        grid = ff_design.grid
        zones = list(ff_design.zones)
        zones[0] = ZoneDesign(z=zones[0].z, H_p=FIVE_MIN, H_d=7 / 60, gamma=1)
        bad = DesignSolution(strategy=FULLY_FLEXIBLE, grid=grid, K=8, zones=tuple(zones))
        with pytest.raises(InfeasibleDesignError, match="inbound_sync"):
            validate_design(table2, bad)

    def test_capacity_constraint(self, table2: ScenarioParams, ff_design: DesignSolution) -> None:
        small_bus = DesignSolution(
            strategy=FULLY_FLEXIBLE, grid=ff_design.grid, K=2, zones=ff_design.zones
        )
        with pytest.raises(InfeasibleDesignError, match="capacity") as exc:
            validate_design(table2, small_bus)
        assert "occupancy" in str(exc.value)

    def test_swath_width_must_tile_zone(self, table2: ScenarioParams, sf_design: DesignSolution) -> None:
        bad = DesignSolution(
            strategy=SEMI_FLEXIBLE,
            grid=sf_design.grid,
            K=8,
            zones=sf_design.zones,
            w0=0.3,
        )
        with pytest.raises(InfeasibleDesignError, match="swath_width"):
            validate_design(table2, bad)


class TestLowOccupancyWarning:
    def test_sparse_demand_warns(self, table2: ScenarioParams) -> None:
        # single 4 km^2 zone at a 5 min headway: mu = lambda * (1/12) * 4 per
        # dispatch, i.e. 1/3 at lambda = 1 and 1.0 at lambda = 3
        for density in (1.0, 3.0):
            sparse = table2.replace(lambda_p=density, lambda_d=density)
            grid = make_grid(sparse, 1, 1)
            design = DesignSolution(
                strategy=FULLY_FLEXIBLE, grid=grid, K=8, zones=uniform_zones(grid, FIVE_MIN)
            )
            with pytest.warns(LowOccupancyWarning, match=f"below {LOW_OCCUPANCY_MEAN:g} "):
                bd = total_generalized_cost(sparse, design, TABLE1_MODEL)
            assert bd.GC > 0

    def test_base_case_is_silent(self, table2: ScenarioParams, ff_design: DesignSolution) -> None:
        # the base FF optimum dispatches its 1 km^2 outbound zones at H_min:
        # mu = 40 * 0.05 * 1 = 2.0, the edge of the promised band
        grid = ff_design.grid
        at_h_min = DesignSolution(
            strategy=FULLY_FLEXIBLE,
            grid=grid,
            K=8,
            zones=tuple(
                ZoneDesign(z=z, H_p=table2.H_min, H_d=FIVE_MIN, gamma=1) for z in grid.zones()
            ),
        )
        assert mean_occupancy(table2, grid, at_h_min.zones[0], "outbound") == pytest.approx(2.0)
        for design in (ff_design, at_h_min):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                total_generalized_cost(table2, design, TABLE1_MODEL)


# ---------------------------------------------------------------------------
# The kernel against an independent scalar transcription of the books
# ---------------------------------------------------------------------------

BASE = table2_params()


def weibull_moment(mu: float, a: float) -> float:
    """Second-order E[X**a * exp(b4 * X**b5)], X = Q + 1, Var X = mu.

    Derived as g(x) = exp(h(x)), h = a*ln(x) + b4*x**b5, so that
    g'' = g * (h'' + h'**2), and E[g(X)] ~= g(mu+1) + g''(mu+1) * mu / 2.
    """
    m = TABLE1_MODEL
    x = mu + 1.0
    dh = a / x + m.beta4 * m.beta5 * x ** (m.beta5 - 1.0)
    d2h = -a / x**2 + m.beta4 * m.beta5 * (m.beta5 - 1.0) * x ** (m.beta5 - 2.0)
    g = x**a * math.exp(m.beta4 * x**m.beta5)
    return g * (1.0 + (d2h + dh * dh) * mu / 2.0)


def scalar_books(p, grid, D, H, direction, strategy, w0, K, gamma) -> dict[str, float]:
    """One zone-direction's books, written out from the model's formulas."""
    outbound = direction == "outbound"
    lam = p.lambda_p if outbound else p.lambda_d
    tau = p.tau_p if outbound else p.tau_d
    A = grid.l * grid.w
    mu = lam * A * H
    EQ2 = mu + mu**2
    v = p.v_l
    riders = lam * A  # patrons per hour
    if outbound:
        transfer = riders * (p.t_ft + p.H_t / 2.0) + p.tau_a * EQ2 / (2.0 * H)
    else:
        transfer = riders * (p.t_tf + (gamma - 1) * H / (2.0 * gamma)) + p.tau_b * EQ2 / (2.0 * H)
    if strategy == FULLY_FLEXIBLE:
        m = TABLE1_MODEL
        c = (m.beta1 * grid.S + m.beta2) * math.sqrt(A)
        a = m.beta3 + 0.5
        tour_km = c * weibull_moment(mu, a)  # E[L(Q+1)]
        rider_km = c * (weibull_moment(mu, a + 1.0) - weibull_moment(mu, a))  # E[Q L(Q+1)]
        wait = p.alpha * (mu / 2.0 + rider_km / (2.0 * v * H) + p.tau_p * EQ2 / (2.0 * H))
        tour = rider_km / (2.0 * v * H) + tau * EQ2 / (2.0 * H)
        veh_km = (D + tour_km) / H
    else:
        wait = p.alpha * riders * (H / 2.0 + w0 / (3.0 * v))
        tour = ((A / w0 + w0 / 2.0) / v * mu + (w0 / (3.0 * v) + tau) * EQ2) / (2.0 * H)
        veh_km = (A / w0 + w0 / 2.0 + D + mu * w0 / 3.0) / H
        tour_km = A / w0 + w0 / 2.0 + mu * w0 / 3.0
    return {
        "wait": wait if outbound else 0.0,
        "tour": tour,
        "line_haul": riders * D / v,
        "transfer": transfer,
        "dist": p.pi_v(K) / p.theta * veh_km,
        "time": p.pi_m(K) / p.theta * (veh_km / v + tau * riders),
        "tour_km": tour_km,
    }


# every distinct (grid, D, w0) of the 1x1 to 3x6 grids, per strategy
KERNEL_CASES = {
    strategy: [
        (grid, D, w0)
        for grid in (make_grid(BASE, M, N) for M in range(1, 4) for N in range(1, 7))
        for D in sorted({line_haul_distance(grid, z) for z in grid.zones()})
        for w0 in (
            [c.w0 for c in feasible_swath_widths(grid.l, grid.w)]
            if strategy == SEMI_FLEXIBLE
            else [None]
        )
    ]
    for strategy in STRATEGIES
}


class TestKernel:
    @settings(max_examples=40, deadline=None)
    @given(
        H=st.lists(st.floats(BASE.H_min, BASE.H_max), min_size=1, max_size=6),
        K=st.integers(1, 20),
        gamma=st.integers(1, 5),
        direction=st.sampled_from(DIRECTIONS),
        strategy=st.sampled_from(STRATEGIES),
    )
    def test_matches_scalar_transcription(self, H, K, gamma, direction, strategy) -> None:
        H = np.array(H)
        for grid, D, w0 in KERNEL_CASES[strategy]:
            got = zone_books(BASE, grid, D, H, direction, strategy, TABLE1_MODEL, w0, K, gamma)
            at_float = zone_books(
                BASE, grid, D, float(H[0]), direction, strategy, TABLE1_MODEL, w0, K, gamma
            )
            want = [scalar_books(BASE, grid, D, float(h), direction, strategy, w0, K, gamma) for h in H]
            # one comparison per case: a row per field, holding the array
            # call's values and then the float call's; a failure names the field
            expected = np.array([[w[field] for w in want] + [want[0][field]] for field in ZoneBooks._fields])
            actual = np.empty_like(expected)
            for row, vector, point in zip(actual, got, at_float):
                row[:-1], row[-1] = vector, point
            close = np.isclose(actual, expected, rtol=1e-12, atol=0).all(axis=1)
            bad = close.argmin()
            assert close.all(), (
                f"{ZoneBooks._fields[bad]}: kernel {actual[bad].tolist()}, transcription {expected[bad].tolist()}"
            )

    @settings(max_examples=20, deadline=None)
    @given(
        H=st.lists(st.floats(BASE.H_min, BASE.H_max), min_size=2, max_size=8),
        gamma=st.lists(st.integers(1, 5), min_size=1, max_size=1),
        direction=st.sampled_from(DIRECTIONS),
        strategy=st.sampled_from(STRATEGIES),
        case=st.integers(0, 10_000),
    )
    def test_vector_call_equals_elementwise_calls(self, H, gamma, direction, strategy, case) -> None:
        grid, D, w0 = KERNEL_CASES[strategy][case % len(KERNEL_CASES[strategy])]
        H = np.array(H)
        g = np.array(gamma * len(H))
        vector = zone_books(BASE, grid, D, H, direction, strategy, TABLE1_MODEL, w0, 9, g)
        for i, h in enumerate(H):
            point = zone_books(
                BASE, grid, D, np.asarray(h), direction, strategy, TABLE1_MODEL, w0, 9, np.asarray(g[i])
            )
            for field in ZoneBooks._fields:
                assert np.broadcast_to(getattr(vector, field), H.shape)[i] == getattr(point, field)
        assert np.array_equal(
            vector.total,
            [zone_books(BASE, grid, D, np.asarray(h), direction, strategy, TABLE1_MODEL, w0, 9, gamma[0]).total for h in H],
        )

    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_per_lane_geometry_equals_per_grid_calls(self, strategy: str, direction: str) -> None:
        # one call over lanes of different grids (and swath widths), each lane
        # with its own headways, D, K and gamma, against one call per lane
        # on that lane's grid: the same ufuncs on the same operands
        cases = KERNEL_CASES[strategy]
        rng = np.random.default_rng(7)
        H = rng.uniform(BASE.H_min, BASE.H_max, (len(cases), 5))
        D = np.array([D for _, D, _ in cases])[:, None]
        K = rng.integers(1, 21, (len(cases), 1))
        gamma = rng.integers(1, 6, (len(cases), 1))
        area = np.array([grid.area for grid, _, _ in cases])[:, None]
        S = np.array([grid.S for grid, _, _ in cases])[:, None]
        w0 = None if strategy == FULLY_FLEXIBLE else np.array([w for _, _, w in cases])[:, None]
        lanes = zone_books(BASE, ZoneShape(area, S), D, H, direction, strategy, TABLE1_MODEL, w0, K, gamma)
        for i, (grid, D_i, w0_i) in enumerate(cases):
            want = zone_books(
                BASE, grid, D_i, H[i], direction, strategy, TABLE1_MODEL, w0_i, K[i, 0], gamma[i, 0]
            )
            for field in ZoneBooks._fields:
                got = np.broadcast_to(getattr(lanes, field), H.shape)[i]
                assert np.array_equal(got, np.broadcast_to(getattr(want, field), H[i].shape)), (field, i)

    def test_rejects_a_nonpositive_lane_swath_width(self) -> None:
        shape = ZoneShape(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="swath width"):
            zone_books(BASE, shape, 0.0, np.array([0.1, 0.1]), "outbound", SEMI_FLEXIBLE, w0=np.array([0.5, 0.0]))

    @pytest.mark.parametrize("strategy, w0", [(FULLY_FLEXIBLE, None), (SEMI_FLEXIBLE, 0.5)])
    def test_zone_cost_terms_reads_both_directions(self, strategy: str, w0) -> None:
        grid = make_grid(BASE, 2, 2)
        zd = ZoneDesign(z=ZoneIndex(2, 1), H_p=0.07, H_d=2 * BASE.H_t, gamma=2)
        D = line_haul_distance(grid, zd.z)
        out = scalar_books(BASE, grid, D, zd.H_p, "outbound", strategy, w0, 8, 1)
        inb = scalar_books(BASE, grid, D, zd.H_d, "inbound", strategy, w0, 8, 2)
        terms = ZoneCostTerms(*cost_books(BASE, grid, D, zd.H_p, zd.H_d, zd.gamma, strategy, TABLE1_MODEL, w0, 8))
        want = {
            "C_W": out["wait"],
            "C_Tp": out["tour"],
            "C_Td": inb["tour"],
            "C_Lp": out["line_haul"],
            "C_Ld": inb["line_haul"],
            "C_Rp": out["transfer"],
            "C_Rd": inb["transfer"],
            "C_vk": out["dist"] + inb["dist"],
            "C_vh": out["time"] + inb["time"],
        }
        for field in ZoneCostTerms.FIELDS:
            assert getattr(terms, field) == pytest.approx(want[field], rel=1e-12, abs=0), field

    def test_rejects_missing_swath_and_unknown_strategy(self) -> None:
        grid = make_grid(BASE, 1, 1)
        with pytest.raises(ValueError, match="swath width"):
            zone_books(BASE, grid, 0.0, 0.1, "outbound", SEMI_FLEXIBLE, w0=None)
        with pytest.raises(ValueError, match="unknown strategy"):
            zone_books(BASE, grid, 0.0, 0.1, "outbound", "fixed_route", TABLE1_MODEL)
        with pytest.raises(ValueError, match="tour-length law"):
            zone_books(BASE, grid, 0.0, 0.1, "outbound", FULLY_FLEXIBLE, model=None)
