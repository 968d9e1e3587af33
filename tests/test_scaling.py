import numpy as np
import pytest

from dicke_ed import observables, scaling
from dicke_ed.errors import ConvergenceError, FitError
from dicke_ed.model import ModelParams, critical_coupling
from dicke_ed.observables import converge
from dicke_ed.scaling import (
    SCALING_SCHEDULE,
    ScalingSeries,
    deviation_series,
    extrapolate_exponent,
    fit_concurrence_limit,
    observable_sweep,
    run_jobs,
)

GRID = tuple(2**p for p in range(4, 11))


def synthetic(values, n_values=GRID, observable="synthetic"):
    return ScalingSeries(
        big_d=1.0, coupling=0.5, n_values=tuple(n_values),
        values=tuple(values), observable=observable,
    )


class TestExtrapolation:
    def test_pure_power_law_exact(self):
        fit = extrapolate_exponent(synthetic([3.0 * n**-1.0 for n in GRID]))
        assert fit.exponent == pytest.approx(-1.0, abs=1e-12)
        assert fit.uncertainty < 1e-12
        assert fit.correction_power == 1.0
        assert fit.power_law_ok

    def test_first_order_correction(self):
        fit = extrapolate_exponent(synthetic([n**-1.0 * (1 + 5.0 / n) for n in GRID]))
        assert fit.exponent == pytest.approx(-1.0, abs=1e-3)

    def test_constant_series(self):
        fit = extrapolate_exponent(synthetic([2.0] * 4, n_values=(16, 32, 64, 128)))
        assert fit.exponent == pytest.approx(0.0, abs=1e-14)

    def test_positive_exponent_recovered(self):
        fit = extrapolate_exponent(synthetic([0.1 * n**0.5 for n in GRID]))
        assert fit.exponent == pytest.approx(0.5, abs=1e-10)

    def test_slow_correction_family(self):
        # corrections decaying as N^(-1/3) must not bias the intercept the
        # way a hard-wired 1/N abscissa would (that extrapolates to -0.59)
        vals = [n ** (-2 / 3) * (1 + 0.5 * n ** (-1 / 3)) for n in GRID]
        fit = extrapolate_exponent(synthetic(vals))
        assert fit.exponent == pytest.approx(-2 / 3, abs=5e-3)
        assert 0.25 <= fit.correction_power <= 0.50

    def test_requires_four_points(self):
        with pytest.raises(ValueError):
            extrapolate_exponent(synthetic([1.0, 0.5, 0.25], n_values=(16, 32, 64)))

    def test_rejects_nonpositive_values(self):
        series = synthetic([1.0, 0.5, -0.25, 0.1, 0.1, 0.1, 0.1])
        with pytest.raises(FitError) as info:
            series.local_slopes()
        assert (64, -0.25) in info.value.diagnostics["bad_points"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_values(self, bad):
        series = synthetic([1.0, 0.5, bad, 0.1, 0.1, 0.1, 0.1])
        with pytest.raises(FitError, match="non-finite"):
            series.local_slopes()

    def test_slope_count_and_abscissas(self):
        s = synthetic([1.0 / n for n in GRID])
        assert len(s.local_slopes()) == len(GRID) - 1
        assert s.slope_abscissas()[0] == pytest.approx(1.0 / np.sqrt(16 * 32))

    def test_strictly_increasing_sizes_enforced(self):
        with pytest.raises(ValueError):
            synthetic([1.0, 0.5, 0.3], n_values=(16, 16, 32))


class TestConcurrenceLimitFit:
    def test_recovers_synthetic_parameters(self):
        n = np.array(GRID, float)
        c = 0.3 - 0.5 * n ** (-1 / 3)
        fit = fit_concurrence_limit(GRID, c)
        assert fit["c_inf"] == pytest.approx(0.3, abs=1e-4)
        assert fit["amplitude"] == pytest.approx(0.5, abs=1e-2)
        assert fit["beta"] == pytest.approx(1 / 3, abs=5e-3)
        exact = fit_concurrence_limit(GRID, c, corrections=False)
        assert exact["c_inf"] == pytest.approx(0.3, abs=1e-5)
        assert exact["beta"] == pytest.approx(1 / 3, abs=1e-4)

    def test_recovers_with_corrections(self):
        n = np.array(GRID, float)
        c = 0.3 - 0.5 * n ** (-1 / 3) * (1 + 1.5 * n ** (-1 / 3))
        fit = fit_concurrence_limit(GRID, c)
        assert fit["corrections"]
        assert fit["beta"] == pytest.approx(1 / 3, abs=5e-3)
        assert fit["c_inf"] == pytest.approx(0.3, abs=1e-4)

    def test_small_sample_drops_correction_term(self):
        n = np.array([8, 12, 16, 24, 32], float)
        c = 0.3 - 0.5 * n ** (-0.25)
        fit = fit_concurrence_limit(n, c)
        assert not fit["corrections"]
        assert fit["beta"] == pytest.approx(0.25, abs=2e-3)

    def test_profile_edge_raises(self):
        n = np.array(GRID, float)
        c = 0.3 - 0.5 * n ** (-1.8)  # beyond the profiled range
        with pytest.raises(FitError):
            fit_concurrence_limit(GRID, c, corrections=False)

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit_concurrence_limit([16, 32, 64], [0.1, 0.2, 0.25])


class TestPhysicalSeries:
    def test_energy_series_structure(self):
        ser = observable_sweep(1.0, (16, 32, 64), threshold=1e-8)
        assert len(ser) == 3
        assert all(r["e0"] < 0 for r in ser)

    def test_subcritical_polarization_is_clean_inverse_n(self):
        """Far below the critical coupling the deficit decays as 1/N (gapped
        phase: a constant excitation pool spread over N atoms), cleanly
        distinct from the critical-point exponent."""
        lam = 0.5 * critical_coupling(1.0, 1.0)
        rows = observable_sweep(1.0, (16, 32, 64, 128, 256), lam=lam,
                                threshold=1e-8, track=("b_n",))
        ser = ScalingSeries(1.0, lam, (16, 32, 64, 128, 256),
                            tuple(r["b_n"] for r in rows), "berry")
        fit = extrapolate_exponent(ser)
        assert fit.exponent == pytest.approx(-1.0, abs=0.02)
        assert fit.power_law_ok

    def test_berry_series_at_critical(self):
        ser = deviation_series("berry", 1.0, (16, 32, 64, 128, 256))
        assert all(v > 0 for v in ser.values)
        assert ser.coupling == pytest.approx(0.5)
        slopes = ser.local_slopes()
        # critical decay is clearly slower than the subcritical 1/N law
        assert all(-0.75 < s < -0.4 for s in slopes)

    def test_concurrence_series_modes(self):
        n_list = (16, 32, 64, 128, 256)
        ser = deviation_series("concurrence", 1.0, n_list)
        assert ser.meta["c_inf_mode"] == "fit"
        assert all(v > 0 for v in ser.values)
        supplied = deviation_series(
            "concurrence", 1.0, n_list, c_inf=ser.meta["c_inf"] + 0.01
        )
        assert supplied.meta["c_inf_mode"] == "supplied"
        expected = ser.values[0] + 0.01
        assert supplied.values[0] == pytest.approx(expected, abs=1e-9)

    def test_critical_gap_exponent(self):
        """The parity gap E_odd - E_even at lambda_c, D = 1, closes as N^(-1/3)
        (Vidal & Dusuel, EPL 74, 817 (2006)): an oracle independent of the
        three fitted observables, from the two sector solves of each point.
        The fit's own uncertainty (about 6e-6) does not cover its offset from
        -1/3 (about 9e-4), so the window is fixed."""
        lam = critical_coupling(1.0, 1.0)
        gaps = []
        for n in GRID:
            res = converge(ModelParams(n, 1.0, 1.0, lam), sector="full", threshold=1e-10)
            even, odd = res.ground.sectors
            assert (even.sector, odd.sector) == ("even", "odd")
            gaps.append(odd.energy - even.energy)
        assert gaps[-1] > 0 and all(b < a for a, b in zip(gaps, gaps[1:]))
        fit = extrapolate_exponent(ScalingSeries(1.0, lam, GRID, tuple(gaps), "gap"))
        assert fit.exponent == pytest.approx(-1 / 3, abs=0.002)

    def test_fit_window_robustness(self):
        """Dropping the smallest size from an asymptotic-window fit moves the
        exponent by < 0.03."""
        rows = observable_sweep(1.0, (64, 128, 256, 512, 1024),
                                threshold=1e-6, track=("c_n",))
        c = [r["c_n"] for r in rows]
        beta_all = fit_concurrence_limit((64, 128, 256, 512, 1024), c)["beta"]
        beta_drop = fit_concurrence_limit((128, 256, 512, 1024), c[1:])["beta"]
        assert abs(beta_all - beta_drop) <= 0.03

    def test_sweep_passes_delta_through(self):
        """The at-critical sweep solves at delta as given, bit for bit: a
        D = delta/omega round trip would move E0 (0.7/0.3*0.3 != 0.7).  An
        unsorted size list gives the same rows, in its own order."""
        omega, delta = 0.3, 0.7
        lam = critical_coupling(omega, delta)
        refs = {n: converge(ModelParams(n, omega, delta, lam), threshold=1e-6,
                            schedule=SCALING_SCHEDULE, track=("e0",)) for n in (16, 32, 64)}
        for n_list in ((16, 32, 64), (32, 16, 64)):
            rows = observable_sweep(delta, n_list, lam=lam, omega=omega, threshold=1e-6)
            assert rows == [{"e0": refs[n].ground.energy, "n_tr_used": refs[n].n_tr_used}
                            for n in n_list]

    def test_sweep_runs_largest_first(self, monkeypatch):
        """A serial sweep solves its points in descending N (repeated sizes
        keep their order) and returns the rows in the order of ``n_list``."""
        calls, point = [], scaling._sweep_point
        monkeypatch.setattr(scaling, "_sweep_point",
                            lambda n, **kw: calls.append(n) or {**point(n, **kw), "n": n})
        rows = observable_sweep(1.0, (8, 4, 16, 4), threshold=1e-6)
        assert calls == [16, 8, 4, 4]
        assert [row["n"] for row in rows] == [8, 4, 16, 4]
        assert rows[1] == rows[3]

    def test_sweep_computes_spin_moments_once_per_step(self, monkeypatch):
        """A berry sweep evaluates the spin moments once per truncation step:
        the row takes the accepted step's tracked values from ``converge``."""
        calls, steps = [], []
        spin, solve = observables.spin_expectations, observables.ground_state
        monkeypatch.setattr(observables, "spin_expectations",
                            lambda gs, p: calls.append(gs.n_tr) or spin(gs, p))
        monkeypatch.setattr(observables, "ground_state",
                            lambda h, **kw: steps.append(h.n_tr) or solve(h, **kw))
        rows = observable_sweep(1.0, GRID, track=("b_n",), threshold=1e-6)
        assert len(steps) > len(GRID)
        assert calls == steps
        for n, row in zip(GRID, rows):
            ref = converge(ModelParams(n, 1.0, 1.0, 0.5), threshold=1e-6,
                           schedule=SCALING_SCHEDULE, track=("b_n",))
            assert row == {"b_n": ref.tracked["b_n"], "n_tr_used": ref.n_tr_used}

    def test_sweep_reproducible(self):
        a = observable_sweep(1.0, (16, 32), threshold=1e-8, seed=1)
        b = observable_sweep(1.0, (16, 32), threshold=1e-8, seed=1)
        assert a == b

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_point_names_its_size(self, workers):
        """With every point failing, serial and pooled sweeps alike name the
        largest size, the first one run."""
        with pytest.raises(ConvergenceError, match=r"sweep point N=32 failed") as info:
            observable_sweep(1.0, (16, 32), threshold=1e-30, schedule=(4, 6),
                             workers=workers)
        assert info.value.history

    def test_failed_largest_point_stops_a_serial_sweep(self, monkeypatch):
        """A serial sweep whose largest point fails solves nothing else."""
        calls, point = [], scaling._sweep_point
        monkeypatch.setattr(scaling, "_sweep_point",
                            lambda n, **kw: calls.append(n) or point(n, **kw))
        with pytest.raises(ConvergenceError, match=r"sweep point N=64 failed"):
            observable_sweep(1.0, (16, 64, 32), threshold=1e-30, schedule=(4, 6))
        assert calls == [64]

    def test_parallel_sweep_matches_serial(self):
        serial = observable_sweep(1.0, (32, 16, 64), threshold=1e-8)
        parallel = observable_sweep(1.0, (32, 16, 64), threshold=1e-8, workers=2)
        for r1, r2 in zip(serial, parallel):
            assert r1["e0"] == pytest.approx(r2["e0"], abs=1e-8)
            assert r1["n_tr_used"] == r2["n_tr_used"]


class _RecordingPool:
    """Stands in for ``concurrent.futures.ProcessPoolExecutor``: records its
    ``max_workers`` and maps in this process, forking nothing."""

    made = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestRunJobs:
    @pytest.fixture(autouse=True)
    def recording_pool(self, monkeypatch):
        import concurrent.futures

        _RecordingPool.made = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)

    @pytest.mark.parametrize("workers,items,made", [
        (64, [1, 2, 3, 4], [4]),
        (2, [1, 2, 3, 4], [2]),
        (4, [1, 2, 3, 4], [4]),
        (64, [1], []),
        (1, [1, 2, 3, 4], []),
    ])
    def test_pool_has_at_most_one_process_per_job(self, workers, items, made):
        assert run_jobs(pow, items, workers, exp=2) == [i**2 for i in items]
        assert _RecordingPool.made == made
