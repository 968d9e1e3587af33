import numpy as np
import pytest

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
        D = delta/omega round trip would move E0 (0.7/0.3*0.3 != 0.7)."""
        omega, delta, n_list = 0.3, 0.7, (16, 32, 64)
        lam = critical_coupling(omega, delta)
        rows = observable_sweep(delta, n_list, lam=lam, omega=omega, threshold=1e-6)
        for n, row in zip(n_list, rows):
            ref = converge(ModelParams(n, omega, delta, lam), threshold=1e-6,
                           schedule=SCALING_SCHEDULE, track=("e0",))
            assert row == {"e0": ref.ground.energy, "n_tr_used": ref.n_tr_used}

    def test_sweep_reproducible(self):
        a = observable_sweep(1.0, (16, 32), threshold=1e-8, seed=1)
        b = observable_sweep(1.0, (16, 32), threshold=1e-8, seed=1)
        assert a == b

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_point_names_its_size(self, workers):
        with pytest.raises(ConvergenceError, match=r"sweep point N=16 failed") as info:
            observable_sweep(1.0, (16, 32), threshold=1e-8, schedule=(4,),
                             workers=workers)
        assert info.value.history

    def test_parallel_sweep_matches_serial(self):
        serial = observable_sweep(1.0, (16, 32, 64), threshold=1e-8)
        parallel = observable_sweep(1.0, (16, 32, 64), threshold=1e-8, workers=2)
        for r1, r2 in zip(serial, parallel):
            assert r1["e0"] == pytest.approx(r2["e0"], abs=1e-8)
