"""Tests for the zone headway optimizer and the discrete design search."""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from drcflex import optimizer
from drcflex import (
    FULLY_FLEXIBLE,
    SEMI_FLEXIBLE,
    DesignSolution,
    InfeasibleDesignError,
    ScenarioParams,
    SearchSpace,
    TABLE1_MODEL,
    ZoneIndex,
    make_grid,
    search_design,
    total_generalized_cost,
)
from drcflex.costs import LowOccupancyWarning, ZoneDesign, capacity_ok, occupancy, zone_books
from drcflex.experiments import default_scenario_grid
from drcflex.params import line_haul_distance
from drcflex.optimizer import (
    METRIC_LABELS,
    SYNC_MULTIPLES,
    _price,
    _solve_space,
    headway_cap_from_capacity,
    optimize_zone_gamma,
    optimize_zone_headway,
)
from drcflex.tourlength import feasible_swath_widths

# perfbench's compare space: both base optima, every kind of search-log note
COMPARE_SPACE = SearchSpace(M_range=(1, 2), N_range=(1, 2, 3, 4), K_range=tuple(range(5, 13)))


def _bits(x: float | None) -> str | None:
    return None if x is None else float(x).hex()


class TestHeadwayCap:
    def test_hand_value(self) -> None:
        # x + 2*sqrt(x) <= 8 gives x_max = (sqrt(9) - 1)^2 = 4, so H = 4/40
        assert headway_cap_from_capacity(40.0, 1.0, 1.0, 8) == pytest.approx(0.1)

    def test_scales_inversely_with_demand(self) -> None:
        assert headway_cap_from_capacity(80.0, 1.0, 1.0, 8) == pytest.approx(0.05)

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            headway_cap_from_capacity(0.0, 1.0, 1.0, 8)
        with pytest.raises(ValueError):
            headway_cap_from_capacity(40.0, 1.0, 1.0, 0)
        with pytest.raises(ValueError, match="capacity"):
            headway_cap_from_capacity(40.0, 1.0, 1.0, np.array([8, 0, 12]))
        with pytest.raises(ValueError, match="zone area"):
            headway_cap_from_capacity(40.0, np.array([[1.0], [0.0]]), 1.0, np.array([8, 12]))

    @pytest.mark.parametrize("lam", [10.0, 21.8, 40.0])
    def test_array_of_capacities_matches_the_scalar_closed_form(self, table2: ScenarioParams, lam: float) -> None:
        # the search asks for every K of a grid in one call; each cap keeps
        # the bits of (sqrt(K + 1) - 1)**2 / (lam*l*w) computed alone
        Ks = np.arange(1, 21)
        for M in range(1, 7):
            for N in range(1, 7):
                grid = make_grid(table2, M, N)
                caps = headway_cap_from_capacity(lam, grid.l, grid.w, Ks)
                want = [(math.sqrt(K + 1.0) - 1.0) ** 2 / (lam * grid.l * grid.w) for K in Ks.tolist()]
                assert [_bits(c) for c in caps] == [_bits(c) for c in want]
                assert [_bits(c) for c in caps] == [
                    _bits(headway_cap_from_capacity(lam, grid.l, grid.w, K)) for K in Ks.tolist()
                ]
        # and every grid at once, as the search lays its space out
        grids = [make_grid(table2, M, N) for M in range(1, 7) for N in range(1, 7)]
        l, w = (np.array([[getattr(g, f)] for g in grids]) for f in ("l", "w"))
        caps = headway_cap_from_capacity(lam, l, w, Ks)
        assert caps.shape == (len(grids), Ks.size)
        assert [[_bits(c) for c in row] for row in caps] == [
            [_bits(headway_cap_from_capacity(lam, g.l, g.w, K)) for K in Ks.tolist()] for g in grids
        ]


class TestZoneHeadway:
    def test_beats_dense_grid(self, table2: ScenarioParams) -> None:
        # (strategy, grid M x N, K, w0, zone): the zone farthest from the
        # terminal in each base optimum's grid
        cases = [(FULLY_FLEXIBLE, 2, 2, 8, None, (2, 2)), (SEMI_FLEXIBLE, 1, 4, 9, 0.5, (1, 4))]
        for strategy, M, N, K, w0, zone in cases:
            grid = make_grid(table2, M, N)
            z = ZoneIndex(*zone)
            H, cost = optimize_zone_headway(table2, grid, z, K, strategy, TABLE1_MODEL, w0_opt=w0)
            lo = table2.H_min
            hi = min(table2.H_max, headway_cap_from_capacity(table2.lambda_p, grid.l, grid.w, K))
            assert lo - 1e-12 <= H <= hi + 1e-12
            D = line_haul_distance(grid, z)
            dense = zone_books(
                table2, grid, D, np.linspace(lo, hi, 2000), "outbound", strategy, TABLE1_MODEL, w0, K
            ).total
            assert cost <= dense.min() + 1e-9

    def test_capacity_makes_zone_infeasible(self, table2: ScenarioParams) -> None:
        grid = make_grid(table2, 2, 2)
        with pytest.raises(InfeasibleDesignError, match="capacity"):
            optimize_zone_headway(table2, grid, ZoneIndex(1, 1), 1, FULLY_FLEXIBLE, TABLE1_MODEL)

    def test_degenerate_interval_returns_bound(self, table2: ScenarioParams) -> None:
        pinned = table2.replace(H_min=5 / 60, H_max=5 / 60, H_t=5 / 60)
        grid = make_grid(pinned, 2, 2)
        H, _ = optimize_zone_headway(pinned, grid, ZoneIndex(1, 1), 8, FULLY_FLEXIBLE, TABLE1_MODEL)
        assert H == pytest.approx(5 / 60)

    def test_capacity_relaxation_extends_interval(self, table2: ScenarioParams) -> None:
        # the capacity rule is always on: K = 6 caps the outbound headway
        grid = make_grid(table2, 2, 2)
        capped_H, _ = optimize_zone_headway(table2, grid, ZoneIndex(1, 1), 6, FULLY_FLEXIBLE, TABLE1_MODEL)
        cap = headway_cap_from_capacity(table2.lambda_p, grid.l, grid.w, 6)
        assert capped_H <= cap + 1e-12


class TestZoneGamma:
    def test_base_case_syncs_every_trunk_departure(self, table2: ScenarioParams) -> None:
        grid = make_grid(table2, 2, 2)
        gamma, H_d, _ = optimize_zone_gamma(table2, grid, ZoneIndex(1, 1), 8, FULLY_FLEXIBLE, TABLE1_MODEL)
        assert gamma == 1
        assert H_d == pytest.approx(table2.H_t)

    def test_skips_capacity_violating_multiples(self, table2: ScenarioParams) -> None:
        # at the base-case demand a 10-minute inbound headway overloads K = 8,
        # so every gamma >= 2 is silently skipped in favor of gamma = 1
        grid = make_grid(table2, 2, 2)
        assert SYNC_MULTIPLES == (1, 2, 3, 4, 5)
        assert optimizer._admitted_multiples(table2, grid.area, (8,)).tolist() == [[True, False, False, False, False]]
        gamma, _, _ = optimize_zone_gamma(table2, grid, ZoneIndex(1, 1), 8, FULLY_FLEXIBLE, TABLE1_MODEL)
        assert gamma == 1

    def test_tiny_bus_has_no_sync_multiple(self, table2: ScenarioParams) -> None:
        grid = make_grid(table2, 2, 2)
        with pytest.raises(InfeasibleDesignError, match="inbound_sync"):
            optimize_zone_gamma(table2, grid, ZoneIndex(1, 1), 1, FULLY_FLEXIBLE, TABLE1_MODEL)


class TestSearchDesign:
    def test_matches_brute_force_on_tiny_scenario(self, table2: ScenarioParams) -> None:
        params = table2.replace(L=1.0, W=1.0, lambda_p=2.0, lambda_d=2.0)
        k_options = (6, 8, 12)
        space = SearchSpace(K_range=k_options, M_range=(1,), N_range=(1,))
        result = search_design(params, space, TABLE1_MODEL)

        grid = make_grid(params, 1, 1)
        best = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LowOccupancyWarning)
            for K in k_options:
                hi = min(params.H_max, headway_cap_from_capacity(2.0, 1.0, 1.0, K))
                for H_p in np.linspace(params.H_min, hi, 400):
                    for gamma in (1, 2, 3):
                        H_d = gamma * params.H_t
                        mu_d = params.lambda_d * H_d
                        if mu_d + 2 * np.sqrt(mu_d) > K:
                            continue
                        design = DesignSolution(
                            strategy=FULLY_FLEXIBLE,
                            grid=grid,
                            K=K,
                            zones=(
                                ZoneDesign(z=ZoneIndex(1, 1), H_p=float(H_p), H_d=H_d, gamma=gamma),
                            ),
                        )
                        best = min(best, total_generalized_cost(params, design, TABLE1_MODEL).GC)
        assert result.cost.GC <= best * 1.001
        assert result.cost.GC == pytest.approx(best, rel=1e-3)

    def test_log_covers_every_combination(self, table2: ScenarioParams) -> None:
        space = SearchSpace(K_range=(1, 8), M_range=(2,), N_range=(2,))
        result = search_design(table2, space, TABLE1_MODEL)
        assert len(result.search_log) == 2
        by_k = {e.K: e for e in result.search_log}
        # a 1-seater cannot absorb mu + 2*sqrt(mu) at any allowed headway
        assert not by_k[1].feasible
        assert by_k[1].note == "infeasible: capacity"
        assert by_k[8].feasible
        assert result.best.K == 8
        assert result.wall_time_s > 0

    def test_unworkable_scenario_raises(self, table2: ScenarioParams) -> None:
        dense = table2.replace(lambda_p=4000.0, lambda_d=4000.0)
        space = SearchSpace(K_range=(8,), M_range=(1,), N_range=(1,))
        with pytest.raises(InfeasibleDesignError, match="search"):
            search_design(dense, space, TABLE1_MODEL)

    def test_sparse_zone_flagged_not_dropped(self, table2: ScenarioParams) -> None:
        sparse = table2.replace(lambda_p=0.1, lambda_d=0.1)
        space = SearchSpace(K_range=(8,), M_range=(1,), N_range=(1,))
        result = search_design(sparse, space, TABLE1_MODEL)
        assert result.search_log[0].feasible
        assert result.search_log[0].note == "low_occupancy"

    def test_widening_the_space_never_hurts(self, table2: ScenarioParams) -> None:
        narrow = SearchSpace(K_range=(8,), M_range=(2,), N_range=(2,))
        wide = SearchSpace(K_range=tuple(range(4, 13)), M_range=(2,), N_range=(2,))
        gc_narrow = search_design(table2, narrow, TABLE1_MODEL).cost.GC
        gc_wide = search_design(table2, wide, TABLE1_MODEL).cost.GC
        assert gc_wide <= gc_narrow * (1 + 1e-9)

    def test_capacity_relaxation_rescues_small_buses(self, table2: ScenarioParams) -> None:
        # with sync locked to 5-minute multiples, K = 6 cannot host the
        # inbound batch, and the capacity rule is never relaxed
        capped = SearchSpace(K_range=(6,), M_range=(2,), N_range=(2,))
        with pytest.raises(InfeasibleDesignError, match="search"):
            search_design(table2, capped, TABLE1_MODEL)

    def test_semi_flexible_enumerates_swath_widths(self, table2: ScenarioParams) -> None:
        space = SearchSpace(
            K_range=(9,), M_range=(1,), N_range=(4,), strategy=SEMI_FLEXIBLE
        )
        result = search_design(table2, space, TABLE1_MODEL)
        # zones are 0.5 x 2.0: widths 0.5, 0.25, 1/6, 0.125 are all tried
        assert len(result.search_log) == 4
        assert sorted({e.w0 for e in result.search_log}, reverse=True) == pytest.approx(
            [0.5, 0.25, 1 / 6, 0.125]
        )
        assert result.best.w0 == pytest.approx(0.5)

    def test_log_csv_layout(self, table2: ScenarioParams, tmp_path) -> None:
        space = SearchSpace(K_range=(1, 8), M_range=(2,), N_range=(2,))
        result = search_design(table2, space, TABLE1_MODEL)
        path = tmp_path / "log.csv"
        result.log_to_csv(path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "strategy,M,N,K,w0,GC,note"
        assert len(lines) == 3
        assert "infeasible: capacity" in lines[1]


class TestSearchSpaceValidation:
    def test_rejects_empty_or_nonpositive_ranges(self) -> None:
        with pytest.raises(ValueError, match="K_range"):
            SearchSpace(K_range=())
        with pytest.raises(ValueError, match="M_range"):
            SearchSpace(M_range=(0, 1))
        for name, bad in (("K_range", (8.5,)), ("M_range", (2.0,)), ("N_range", (1, True))):
            with pytest.raises(ValueError, match=f"{name} must be a nonempty range of positive integers"):
                SearchSpace(**{name: bad})
        with pytest.raises(ValueError, match="strategy"):
            SearchSpace(strategy="walking")


def test_metric_labels_are_stable() -> None:
    assert len(METRIC_LABELS) == 18
    assert METRIC_LABELS[0] == "generalized_cost_min_per_patron"


class TestGroupSolve:
    """The space-wide solve gives each zone what the one-zone calls give it."""

    @pytest.mark.parametrize("strategy", [FULLY_FLEXIBLE, SEMI_FLEXIBLE])
    def test_lanes_are_independent(self, table2: ScenarioParams, strategy: str) -> None:
        # K from 1 to 12 on 1-2 x 1-2 grids runs into both the capacity and
        # the inbound_sync constraints
        space = SearchSpace(
            strategy=strategy, M_range=(1, 2), N_range=(1, 2), K_range=tuple(range(1, 13))
        )
        log = {(e.M, e.N, e.K, e.w0): e for e in search_design(table2, space, TABLE1_MODEL).search_log}
        notes = set()
        sp = optimizer._Space(table2, space)
        runs = _runs_by_combination(sp, _solve_space(table2, sp, TABLE1_MODEL))
        assert [(g.M, g.N) for g in sp.grids] == [(M, N) for M in (1, 2) for N in (1, 2)]
        combos = []
        for grid in sp.grids:
            w0s = [None]
            if strategy == SEMI_FLEXIBLE:
                w0s = [c.w0 for c in feasible_swath_widths(grid.l, grid.w)]
            combos += [(grid.M, grid.N, K, w0) for K in space.K_range for w0 in w0s]
        assert sp.combos() == combos
        for c, (M, N, K, w0) in enumerate(combos):
            grid = sp.grids[sp.cg[c]]
            assert (grid.M, grid.N) == (M, N)
            if c not in runs:
                note = sp.outcome[c][1].removeprefix("infeasible: ")
                notes.add(note)
                assert log[(M, N, K, w0)].note == f"infeasible: {note}"
                for z in grid.zones():
                    with pytest.raises(InfeasibleDesignError, match=note):
                        optimize_zone_headway(table2, grid, z, K, strategy, TABLE1_MODEL, w0)
                        optimize_zone_gamma(table2, grid, z, K, strategy, TABLE1_MODEL, w0)
                continue
            for zd in sp.design(c, runs[c]).zones:
                H_p, _ = optimize_zone_headway(table2, grid, zd.z, K, strategy, TABLE1_MODEL, w0)
                gamma, H_d, _ = optimize_zone_gamma(table2, grid, zd.z, K, strategy, TABLE1_MODEL, w0)
                assert (zd.H_p, zd.gamma, zd.H_d) == (H_p, gamma, H_d)
        assert notes == {"capacity", "inbound_sync"}

    @staticmethod
    def _runs(monkeypatch) -> list:
        """Record the grids of every pricing pass, one array per run."""
        runs = []
        monkeypatch.setattr(
            optimizer, "_price", lambda *a: runs.append(np.unique(a[2].cg[a[2].solved[a[3].s]])) or _price(*a)
        )
        return runs

    @pytest.mark.parametrize("strategy", [FULLY_FLEXIBLE, SEMI_FLEXIBLE])
    def test_lane_cap_splits_the_space_into_groups(
        self, table2: ScenarioParams, strategy: str, monkeypatch
    ) -> None:
        # the compare space is one run; with a cap of one pair every grid is
        # its own solve and pricing pass
        space = replace(COMPARE_SPACE, strategy=strategy)
        runs = self._runs(monkeypatch)
        whole = search_design(table2, space, TABLE1_MODEL)
        assert len(runs) == 1
        runs.clear()
        monkeypatch.setattr(optimizer, "_MAX_PAIRS", 1)
        split = search_design(table2, space, TABLE1_MODEL)
        assert [g.size for g in runs] == [1] * len(runs)
        assert len(runs) > 1
        assert [(e, _bits(e.gc)) for e in split.search_log] == [(e, _bits(e.gc)) for e in whole.search_log]
        assert split.best == whole.best
        assert split.cost == whole.cost

    @pytest.mark.parametrize("strategy", [FULLY_FLEXIBLE, SEMI_FLEXIBLE])
    def test_fit_and_sync_see_each_lane_once(self, table2: ScenarioParams, strategy: str, monkeypatch) -> None:
        # K reaches the outbound fit and the sync costs on a leading axis of
        # its own, so each call evaluates each distinct (grid, w0, D) once,
        # over several runs; on a 3 x 2 km region no two grids share a zone
        # shape, so (area, S, w0, D) names a lane
        params = table2.replace(L=3.0)
        space = SearchSpace(strategy=strategy, M_range=(2, 3), N_range=(2, 3, 4), K_range=tuple(range(5, 13)))
        lanes = []
        for grid in (make_grid(params, M, N) for M in space.M_range for N in space.N_range):
            w0s = [0.0] if strategy == FULLY_FLEXIBLE else [c.w0 for c in feasible_swath_widths(grid.l, grid.w)]
            dists = {}
            for z in grid.zones():
                dists.setdefault(round(line_haul_distance(grid, z), 12), line_haul_distance(grid, z))
            lanes += [(grid.area, grid.S, w0, D) for w0 in w0s for D in dists.values()]
        seen = {}

        def books(params, grid, D, H, direction, strategy, model, w0, K, gamma):
            if np.ndim(K) == 3:  # a call over lanes at every K, not over pairs
                assert np.shape(K) == (len(space.K_range), 1, 1)
                cols = (grid.area.ravel(), grid.S.ravel(), np.zeros(D.size) if w0 is None else w0.ravel(), D.ravel())
                seen.setdefault((direction, model is optimizer._ZERO_LAW), []).extend(zip(*(c.tolist() for c in cols)))
            return zone_books(params, grid, D, H, direction, strategy, model, w0, K, gamma)

        monkeypatch.setattr(optimizer, "zone_books", books)
        monkeypatch.setattr(optimizer, "_MAX_PAIRS", 64)
        runs = self._runs(monkeypatch)
        sp = optimizer._Space(params, space)
        for _ in _solve_space(params, sp, TABLE1_MODEL):
            pass
        assert len(runs) > 1
        assert set(sp.cg[sp.solved].tolist()) == set(range(len(sp.grids)))  # every grid is solved
        kinds = {("outbound", True), ("inbound", False)}
        kinds |= {("outbound", False)} if strategy == FULLY_FLEXIBLE else set()
        assert set(seen) == kinds
        for kind in kinds:
            assert sorted(seen[kind]) == sorted(lanes), kind

    @pytest.mark.parametrize("strategy", [FULLY_FLEXIBLE, SEMI_FLEXIBLE])
    def test_capacity_axis_matches_one_capacity_per_pair(self, table2: ScenarioParams, strategy: str) -> None:
        # each pair's fit and sync costs from the K axis have the bits of a
        # call with the pair's own lane and K
        sp = optimizer._Space(table2, SearchSpace(strategy=strategy))
        lane, _, k = sp.pairs(slice(0, sp.solved.size))
        K = sp.Ks[k]
        pairs = optimizer._Lanes(*(v if v is None else v[lane] for v in sp.lanes))
        for call in (optimizer._outbound_fit, optimizer._sync_costs):
            axis = call(table2, strategy, TABLE1_MODEL, sp.lanes, sp.Ks[:, None, None])
            own = call(table2, strategy, TABLE1_MODEL, pairs, K[:, None])
            if call is optimizer._sync_costs:
                axis, own = np.moveaxis(axis, -1, 0), np.moveaxis(own, -1, 0)
            assert np.array_equal(axis[:, k, lane], own)

    @pytest.mark.parametrize(
        "strategy, M, N, K, w0",
        [(FULLY_FLEXIBLE, 2, 2, 8, None), (FULLY_FLEXIBLE, 1, 3, 12, None),
         (SEMI_FLEXIBLE, 1, 4, 9, 0.5), (SEMI_FLEXIBLE, 2, 2, 6, 0.25)],
    )
    def test_matches_the_scalar_scipy_search(
        self, table2: ScenarioParams, strategy: str, M: int, N: int, K: int, w0
    ) -> None:
        # The reference is the search as it ran on scipy: scalar kernel calls
        # at 40 even and 20 fixed-seed points, and one minimize_scalar per
        # scan dip, to 0.05 s.  Both strategies are solved from the cost's form
        # instead: no costlier than scipy's, and within its tolerance of its
        # headway where neither bound binds.
        from scipy.optimize import minimize_scalar

        tol = 0.1 / 3600.0
        unit = np.random.default_rng(0xD5C0).random(20)
        grid = make_grid(table2, M, N)
        lo = table2.H_min
        hi = min(table2.H_max, headway_cap_from_capacity(table2.lambda_p, grid.l, grid.w, K))
        for z in grid.zones():
            D = line_haul_distance(grid, z)

            def f(H):
                return zone_books(table2, grid, D, H, "outbound", strategy, TABLE1_MODEL, w0, K).total

            starts = np.sort(np.concatenate([np.linspace(lo, hi, 40), lo + (hi - lo) * unit]))
            vals = f(starts)
            ref_H, ref_val = starts[vals.argmin()], vals.min()
            padded = np.concatenate(([np.inf], vals, [np.inf]))
            for i in np.flatnonzero((vals <= padded[:-2]) & (vals <= padded[2:])):
                a = starts[i - 1] if i > 0 else lo
                b = starts[i + 1] if i + 1 < len(starts) else hi
                res = minimize_scalar(f, bounds=(a, b), method="bounded", options={"xatol": tol / 2})
                if res.fun < ref_val:
                    ref_H, ref_val = res.x, res.fun
            H, val = optimize_zone_headway(table2, grid, z, K, strategy, TABLE1_MODEL, w0)
            assert val <= ref_val
            if lo < H < hi:
                assert abs(H - ref_H) <= tol


def _sf_lanes(params: ScenarioParams, n: int, seed: int) -> tuple[optimizer._Lanes, np.ndarray]:
    """``n`` random semi-flexible lanes, a zone of a grid of the default space
    and one of its swath widths, and a capacity of 1-20 for each."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        grid = make_grid(params, *rng.integers(1, 7, size=2).tolist())
        zones = list(grid.zones())
        z = zones[rng.integers(len(zones))]
        widths = feasible_swath_widths(grid.l, grid.w)
        w0 = widths[rng.integers(len(widths))].w0
        rows.append((line_haul_distance(grid, z), int(rng.integers(1, 21)), grid.area, grid.S, w0))
    D, K, area, S, w0 = (np.array(col) for col in zip(*rows))
    return optimizer._Lanes(D, area, S, w0), K


class TestSemiFlexibleHeadway:
    """The SF outbound cost is A/H + B + C*H, and its square-root headway is exact."""

    DEMANDS = (2.0, 21.0, 80.0)

    @pytest.mark.parametrize("lam", DEMANDS)
    def test_kernel_is_affine_in_inverse_headway_one_and_headway(self, table2: ScenarioParams, lam: float) -> None:
        params = table2.replace(lambda_p=lam, lambda_d=lam)
        lanes, K = _sf_lanes(params, 60, seed=int(lam))
        cost = optimizer._lane_cost(params, SEMI_FLEXIBLE, TABLE1_MODEL, lanes)
        H = np.linspace(0.01, 1.0, 40)
        vals = cost("outbound", H[None, :], np.arange(lanes.D.size), K[:, None])
        basis = np.stack([1.0 / H, np.ones_like(H), H], axis=1)
        for row in vals:
            A, B, C = np.linalg.lstsq(basis, row, rcond=None)[0]
            assert A > 0.0 and C > 0.0
            np.testing.assert_allclose(basis @ (A, B, C), row, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("lam", DEMANDS)
    def test_square_root_headway_beats_a_dense_grid(self, table2: ScenarioParams, lam: float) -> None:
        params = table2.replace(lambda_p=lam, lambda_d=lam)
        lanes, K = _sf_lanes(params, 60, seed=100 + int(lam))
        lo = params.H_min
        hi = np.minimum(params.H_max, [
            headway_cap_from_capacity(lam, 1.0, area, k) for area, k in zip(lanes.area, K.tolist())
        ])
        keep = hi >= lo  # the others are ruled out before any solve
        assert keep.sum() > 40
        lanes, K, hi = optimizer._Lanes(*(v[keep] for v in lanes)), K[keep], hi[keep]
        cost = optimizer._lane_cost(params, SEMI_FLEXIBLE, TABLE1_MODEL, lanes)
        lane = np.arange(hi.size)
        fit = optimizer._outbound_fit(params, SEMI_FLEXIBLE, TABLE1_MODEL, lanes, K[:, None])
        H = optimizer._outbound_headways(params, SEMI_FLEXIBLE, TABLE1_MODEL, lanes, fit, lane, K, hi)
        free = optimizer._outbound_headways(
            params, SEMI_FLEXIBLE, TABLE1_MODEL, lanes, fit, lane, K, np.full(hi.size, 1e6)
        )
        val = cost("outbound", H, lane, K)
        for i in range(hi.size):
            dense = cost("outbound", np.linspace(lo, hi[i], 10_000), np.array([i]), K[i])
            assert val[i] <= dense.min()
        # capped lanes sit exactly on their cap, which still fits the vehicle
        capped = free > hi
        assert capped.any() and (~capped).any()
        assert (H[capped] == hi[capped]).all()
        assert capacity_ok(occupancy(params, H[capped], lanes.area[capped], "outbound"), K[capped]).all()
        np.testing.assert_array_equal(H[~capped], np.clip(free[~capped], lo, None))

    @pytest.mark.parametrize(
        "bad", [lambda H: -1.0 / H + H, lambda H: 1.0 / H - H, lambda H: np.full_like(H, math.nan)],
        ids=["A<=0", "C<=0", "nan"],
    )
    def test_non_convex_lane_is_named(self, table2: ScenarioParams, bad, monkeypatch) -> None:
        # lane 2 of four has the bad cost, the others 1/H + 2 + H
        def cost(direction, H, idx, K, gamma=1):
            lane = idx.reshape(idx.shape + (1,) * (H.ndim - idx.ndim))
            return np.where(lane == 2, bad(H), 1.0 / H + 2.0 + H)

        monkeypatch.setattr(optimizer, "_lane_cost", lambda *args: cost)
        lanes, K = optimizer._Lanes(*np.ones((4, 4))), np.full(4, 8)
        fit = optimizer._outbound_fit(table2, SEMI_FLEXIBLE, TABLE1_MODEL, lanes, K[:, None])
        with pytest.raises(ValueError, match="lane 2"):
            optimizer._outbound_headways(
                table2, SEMI_FLEXIBLE, TABLE1_MODEL, lanes, fit, np.arange(4), K, np.full(4, 1.0)
            )


class TestFullyFlexibleHeadway:
    """The FF headway from the cost's form is never beaten by a dense grid."""

    # 1 ulp above the grid's best was the most seen over every campaign lane
    SLACK_ULPS = 4

    def test_every_lane_beats_a_dense_grid(self, table2: ScenarioParams) -> None:
        # the alpha = 0.3, theta = 5 scenarios hold the lanes with a dip
        # inside the interval besides the one at H_min
        params = dict(default_scenario_grid(table2))["lam40_a0.3_th5_2x2"]
        sp = optimizer._Space(params, SearchSpace())
        lane, g, k = sp.pairs(slice(0, sp.solved.size))
        K, hi = sp.Ks[k], sp.hi[g, k]
        assert hi.size == 6017
        fit = optimizer._outbound_fit(params, FULLY_FLEXIBLE, TABLE1_MODEL, sp.lanes, sp.Ks[:, None, None])
        H = optimizer._outbound_headways(params, FULLY_FLEXIBLE, TABLE1_MODEL, sp.lanes, fit[:, k, lane], lane, K, hi)
        cost = optimizer._lane_cost(params, FULLY_FLEXIBLE, TABLE1_MODEL, sp.lanes)
        val = cost("outbound", H, lane, K)
        assert ((params.H_min <= H) & (H <= np.maximum(hi, params.H_min))).all()
        for i in range(0, hi.size, 500):
            j = np.arange(i, min(i + 500, hi.size))
            grid = np.linspace(params.H_min, np.maximum(hi[j], params.H_min), 1000, axis=1)
            best = cost("outbound", grid, lane[j], K[j, None]).min(axis=1)
            assert (val[j] <= best + self.SLACK_ULPS * np.spacing(best)).all()


def _runs_by_combination(sp, runs) -> dict:
    """The run of each solved combination."""
    return {c: run for run in runs for c in sp.solved[run.s].tolist()}


def _reference(params: ScenarioParams, sp, c: int, run) -> tuple[float | None, str]:
    """What total_generalized_cost says of one solved combination: (GC or None, note)."""
    design = sp.design(c, run)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", LowOccupancyWarning)
        try:
            gc = total_generalized_cost(params, design, TABLE1_MODEL).GC
        except InfeasibleDesignError as exc:
            return None, f"infeasible: {exc.constraint}"
    low = any(issubclass(w.category, LowOccupancyWarning) for w in caught)
    return gc, "low_occupancy" if low else ""


def _assert_same_outcome(got: tuple, want: tuple) -> None:
    # the pricing pass and total_generalized_cost share one kernel call per
    # direction and one order of additions, so they agree bit for bit
    assert (_bits(got[0]), got[1]) == (_bits(want[0]), want[1])


# (demand, space, notes the log must show)
PRICING_CASES = {
    "compare": ({}, COMPARE_SPACE, {"", "low_occupancy"}),
    "sparse": ({"lambda_p": 0.5, "lambda_d": 0.5}, COMPARE_SPACE, {"low_occupancy"}),
    # grids whose lanes hold zones at distances that differ in their last bits
    "large": ({}, SearchSpace(M_range=(5, 6), N_range=(5, 6), K_range=(4, 8, 12)), {"low_occupancy"}),
}


class TestPricing:
    """The one-pass pricing agrees with total_generalized_cost combination by combination."""

    @pytest.mark.parametrize("case", PRICING_CASES)
    @pytest.mark.parametrize("strategy", [FULLY_FLEXIBLE, SEMI_FLEXIBLE])
    def test_log_matches_total_generalized_cost(self, table2: ScenarioParams, strategy: str, case: str) -> None:
        demand, space, expected_notes = PRICING_CASES[case]
        params = table2.replace(**demand)
        space = replace(space, strategy=strategy)
        result = search_design(params, space, TABLE1_MODEL)
        notes = set()
        sp = optimizer._Space(params, space)
        runs = _runs_by_combination(sp, _solve_space(params, sp, TABLE1_MODEL))
        assert [(e.M, e.N, e.K, e.w0) for e in result.search_log] == sp.combos()
        for c, entry in enumerate(result.search_log):
            if c not in runs:
                assert (entry.gc, entry.note) == sp.outcome[c]
                assert entry.note in ("infeasible: capacity", "infeasible: inbound_sync")
                continue
            want = _reference(params, sp, c, runs[c])
            _assert_same_outcome((entry.gc, entry.note), want)
            notes.add(want[1])
        assert notes == expected_notes
        # each zone is priced at its own distance, not at its lane's: some
        # lane holds zones whose distances differ in bits
        split_lanes = any(
            np.unique(sp.zone_D[at:at + n]).size > n_dist for at, n, n_dist in zip(sp.zone_at, sp.n_zones, sp.n_dist)
        )
        assert split_lanes or case != "large"
        # the reported cost is total_generalized_cost of the winner, field for field
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LowOccupancyWarning)
            assert result.cost == total_generalized_cost(params, result.best, TABLE1_MODEL)

    @pytest.mark.parametrize("strategy", [FULLY_FLEXIBLE, SEMI_FLEXIBLE])
    def test_names_the_first_failed_check(self, table2: ScenarioParams, strategy: str) -> None:
        # Solved designs pass every check, so break some: pairs 1, 2, 3 and 4
        # of every five leave the outbound bounds, leave the inbound bounds,
        # leave the trunk sync and overload the vehicle.  Zones of one
        # combination sit on different lanes, so the first failed zone decides.
        space = replace(COMPARE_SPACE, strategy=strategy)
        names = set()
        sp = optimizer._Space(table2, space)
        for run in _solve_space(table2, sp, TABLE1_MODEL):
            kind = np.arange(run.H_p.size) % 5
            run = run._replace(
                H_p=np.where(kind == 1, table2.H_max + 0.01, np.where(kind == 4, table2.H_max, run.H_p)),
                H_d=np.where(kind == 2, table2.H_max + 0.5, np.where(kind == 3, run.H_d + 1e-6, run.H_d)),
            )
            _price(table2, TABLE1_MODEL, sp, run)
            for c in sp.solved[run.s].tolist():
                want = _reference(table2, sp, c, run)
                _assert_same_outcome(sp.outcome[c], want)
                names.add(want[1])
        broken = {"outbound_headway_bounds", "inbound_headway_bounds", "inbound_sync", "capacity"}
        assert {f"infeasible: {name}" for name in broken} <= names
        assert names - {f"infeasible: {name}" for name in broken} <= {"", "low_occupancy"}


class TestWinnerCost:
    """The winner's reported cost has the bits of its search-log entry."""

    # the base scenario, and a campaign scenario whose FF winner gets another
    # GC, by an ulp, from libm's exp and pow than from numpy's
    @pytest.mark.parametrize("scenario", ["table2", "lam10_a0.3_th5_2x2"])
    @pytest.mark.parametrize("strategy", [FULLY_FLEXIBLE, SEMI_FLEXIBLE])
    def test_log_gc_is_the_reported_gc(self, table2: ScenarioParams, strategy: str, scenario: str) -> None:
        params = table2 if scenario == "table2" else dict(default_scenario_grid(table2))[scenario]
        result = search_design(params, SearchSpace(strategy=strategy), TABLE1_MODEL)
        best = result.best
        [entry] = [
            e for e in result.search_log if (e.M, e.N, e.K, e.w0) == (best.grid.M, best.grid.N, best.K, best.w0)
        ]
        assert _bits(entry.gc) == _bits(result.cost.GC)
