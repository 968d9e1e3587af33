import math

import numpy as np
import pytest

from dicke_ed.errors import ConvergenceError
from dicke_ed.eigen import ground_state
from dicke_ed.hamiltonian import assemble_dcs, assemble_dfs, project_parity
from dicke_ed import observables
from dicke_ed.model import ModelParams, critical_coupling
from dicke_ed.observables import (
    converge,
    result_row,
    spin_expectations,
    CSV_COLUMNS,
)

from oracles import (
    berry_phase,
    concurrence,
    magnetization_x,
    oracle_moments,
    to_bare_table,
)


def solve_even(params, n_tr, basis="dcs"):
    assemble = assemble_dcs if basis == "dcs" else assemble_dfs
    return ground_state(project_parity(assemble(params, n_tr), "even"))


class TestDecoupledLimit:
    @pytest.mark.parametrize("n_atoms", [2, 8, 32])
    def test_polarized_values(self, n_atoms):
        p = ModelParams(n_atoms, 1.0, 1.0, 0.0)
        gs = solve_even(p, 6)
        assert magnetization_x(gs, p) == pytest.approx(0.0, abs=1e-10)
        assert concurrence(gs, p) == pytest.approx(0.0, abs=1e-10)
        assert berry_phase(gs, p) == pytest.approx(2 * math.pi * p.j, abs=1e-9)


class TestOracleMoments:
    @pytest.mark.parametrize("n_atoms,lam", [(2, 0.45), (4, 0.9), (5, 0.6)])
    def test_moments_match_dense_oracle(self, n_atoms, lam):
        p = ModelParams(n_atoms, 1.0, 1.0, lam)
        orc = oracle_moments(n_atoms, 1.0, 1.0, lam, 180)
        for basis, n_tr in (("dcs", 30), ("dfs", 150)):
            gs = solve_even(p, n_tr, basis)
            ex = spin_expectations(gs, p)
            assert ex["jx"] == pytest.approx(orc["jx"], abs=1e-8), basis
            assert ex["jz2"] == pytest.approx(orc["jz2"], abs=1e-8), basis
            assert ex["jy2"] == pytest.approx(orc["jy2"], abs=1e-8), basis

    def test_strong_coupling_limits_against_oracle(self):
        # alpha = 9: polarization deficit should sit near the classical value
        # 1 - 1/alpha (not at 1: that limit is reached only as alpha -> inf)
        p9 = ModelParams(8, 1.0, 1.0, 1.5)
        gs = solve_even(p9, 40)
        orc = oracle_moments(8, 1.0, 1.0, 1.5, 250)
        b = magnetization_x(gs, p9)
        assert b == pytest.approx(1.0 - orc["jx"] / p9.j, abs=1e-8)
        assert b == pytest.approx(1.0 - 1.0 / 9.0, abs=0.01)
        # alpha = 900 at fixed small N: sectors decouple, deficit saturates
        p900 = ModelParams(8, 1.0, 1.0, 15.0)
        gs = solve_even(p900, 40)
        assert abs(magnetization_x(gs, p900) - 1.0) < 2e-3
        assert abs(concurrence(gs, p900)) < 2e-3


class TestSpinIdentities:
    @pytest.mark.parametrize(
        "n_atoms,lam", [(2, 0.3), (4, 0.5), (5, 0.8), (8, 1.0), (16, 0.5)]
    )
    def test_sum_rule(self, n_atoms, lam):
        p = ModelParams(n_atoms, 1.0, 1.0, lam)
        gs = solve_even(p, 24)
        ex = spin_expectations(gs, p)
        total = ex["jx2"] + ex["jy2"] + ex["jz2"]
        assert total == pytest.approx(p.j * (p.j + 1), abs=1e-9)

    def test_raising_lowering_squares_equal(self):
        p = ModelParams(6, 1.0, 1.0, 0.7)
        ex = spin_expectations(solve_even(p, 20), p)
        assert ex["jp2"] == pytest.approx(ex["jm2"], abs=1e-10)

    def test_second_moment_bounds(self):
        for lam in (0.0, 0.4, 0.7, 1.2):
            p = ModelParams(8, 1.0, 1.0, lam)
            ex = spin_expectations(solve_even(p, 24), p)
            assert -1e-9 <= ex["jy2"] <= p.j * (p.j + 1) + 1e-9
            b = 1.0 - ex["jx"] / p.j
            assert -1e-9 <= b <= 2.0 + 1e-9

    def test_berry_magnetization_identity(self):
        p = ModelParams(12, 1.0, 1.0, 0.45)
        gs = solve_even(p, 16)
        gamma = berry_phase(gs, p)
        b = magnetization_x(gs, p)
        assert gamma == pytest.approx(2 * math.pi * p.j * (1.0 - b), rel=1e-12)


class TestBasisConsistency:
    @pytest.mark.parametrize("n_atoms,lam", [(4, 0.45), (8, 0.5), (8, 1.0)])
    def test_concurrence_agrees_across_bases(self, n_atoms, lam):
        p = ModelParams(n_atoms, 1.0, 1.0, lam)
        c_dcs = concurrence(solve_even(p, 32), p)
        c_dfs = concurrence(solve_even(p, 200, "dfs"), p)
        assert c_dcs == pytest.approx(c_dfs, abs=1e-6)

    def test_bare_transform_matches_bare_solution(self):
        p = ModelParams(4, 1.0, 1.0, 0.6)
        gs = solve_even(p, 26)
        bare = to_bare_table(gs, p, 60)
        ref = solve_even(p, 60, "dfs").table
        sign = math.copysign(1.0, float(np.sum(bare * ref)))
        assert np.max(np.abs(sign * bare - ref)) < 1e-9
        assert np.linalg.norm(bare) == pytest.approx(1.0, abs=1e-9)

    def test_bare_transform_rejects_bare_input(self):
        p = ModelParams(4, 1.0, 1.0, 0.6)
        with pytest.raises(ValueError):
            to_bare_table(solve_even(p, 30, "dfs"), p, 30)


class TestStructureNearCriticality:
    def test_berry_step_sharpens_with_size(self):
        """Polarization vs coupling steepens near the critical point as N
        grows, and the steepest point moves toward it."""
        alphas = np.arange(0.85, 1.301, 0.01)
        max_slopes, locs = [], []
        for n_atoms in (8, 32, 128):
            vals = []
            for a in alphas:
                lam = 0.5 * math.sqrt(a * 5.0)
                res = converge(ModelParams(n_atoms, 1.0, 5.0, lam),
                               threshold=1e-8, track=("e0",))
                vals.append(1.0 - res.values["b_n"])
            dv = np.abs(np.diff(vals)) / 0.01
            i = int(np.argmax(dv))
            max_slopes.append(dv[i])
            locs.append(abs(alphas[i] - 1.0))
        assert max_slopes[0] < max_slopes[1] < max_slopes[2]
        assert locs[0] > locs[1] > locs[2]

    def test_concurrence_cusp_sharpens_with_size(self):
        lam_c = critical_coupling(1.0, 1.0)
        fracs = [0.6 + 0.1 * i for i in range(13)]
        peaks, curvatures = [], []
        for n_atoms in (8, 32, 128):
            vals = [
                converge(ModelParams(n_atoms, 1.0, 1.0, f * lam_c),
                         threshold=1e-8, track=("e0",)).values["c_n"]
                for f in fracs
            ]
            i = int(np.argmax(vals))
            peaks.append(abs(fracs[i] - 1.0))
            curvatures.append(vals[i - 1] - 2 * vals[i] + vals[i + 1])
        assert peaks[0] >= peaks[1] >= peaks[2]
        assert peaks[2] <= 0.1 + 1e-9
        assert curvatures[0] > curvatures[1] > curvatures[2]  # more negative


class TestConvergeDriver:
    def test_decoupled_converges_at_first_comparison(self):
        p = ModelParams(16, 1.0, 1.0, 0.0)
        res = converge(p)
        assert res.n_tr_used == 6  # first comparison in the default schedule
        assert res.values["e0"] == pytest.approx(-p.j * p.delta, abs=1e-10)

    def test_moderate_coupling_truncation_budget(self):
        p = ModelParams(32, 1.0, 1.0, 1.0)
        res = converge(p, threshold=1e-6)
        assert res.n_tr_used <= 10

    def test_large_systems_need_fewer_states(self):
        lam_c = critical_coupling(1.0, 1.0)
        used = [
            converge(ModelParams(n, 1.0, 1.0, lam_c), threshold=1e-6).n_tr_used
            for n in (64, 1024)
        ]
        assert used[1] <= used[0]

    def test_history_and_rel_change_recorded(self):
        p = ModelParams(8, 1.0, 1.0, 0.6)
        res = converge(p, threshold=1e-6, track=("e0", "jy2"))
        assert res.n_tr_used == res.history[-1][0]
        assert set(res.rel_change) == {"e0", "jy2"}
        assert all(v < 1e-6 for v in res.rel_change.values())
        energies = [vals["e0"] for _, vals in res.history]
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))

    def test_energy_only_steps_skip_spin_moments(self, monkeypatch):
        p = ModelParams(16, 1.0, 1.0, 0.5)
        full = converge(p, threshold=1e-8, track=("e0", "jy2"))
        calls = []
        real = observables.spin_expectations

        def counting(gs, params):
            calls.append(gs.n_tr)
            return real(gs, params)

        monkeypatch.setattr(observables, "spin_expectations", counting)
        res = converge(p, threshold=1e-8)
        assert calls == [res.n_tr_used]
        assert all(set(vals) == {"e0"} for _, vals in res.history[:-1])
        assert res.history[-1][1] is res.values
        assert res.n_tr_used == full.n_tr_used
        assert res.values == full.values

    @pytest.mark.parametrize("track", [("foo",), (), ("e0", "E0")])
    def test_rejects_unknown_or_empty_track(self, track):
        with pytest.raises(ValueError, match="e0, b_n, gamma, jy2, c_n"):
            converge(ModelParams(4, 1.0, 1.0, 0.3), track=track)

    def test_schedule_exhaustion_carries_history(self):
        p = ModelParams(8, 1.0, 1.0, 0.9)
        with pytest.raises(ConvergenceError) as info:
            converge(p, threshold=1e-30, schedule=(4, 6, 8))
        assert len(info.value.history) == 3

    def test_dense_oracle_path_matches(self):
        p = ModelParams(12, 1.0, 1.0, 0.7)
        a = converge(p, threshold=1e-8)
        b = converge(p, threshold=1e-8, dense=True)
        assert a.values["e0"] == pytest.approx(b.values["e0"], abs=1e-9)
        assert a.values["c_n"] == pytest.approx(b.values["c_n"], abs=1e-8)

    def test_result_row_schema(self):
        p = ModelParams(8, 1.0, 2.0, 0.5)
        row = result_row(converge(p))
        assert tuple(row) == CSV_COLUMNS
        assert row["N"] == 8
        assert row["E0_scaled"] == pytest.approx(row["E0"] / (4.0 * 2.0))
        assert row["parity"] == "even"

    def test_odd_atom_number_full_pipeline(self):
        p = ModelParams(7, 1.0, 1.0, 0.55)
        res = converge(p, threshold=1e-8, track=("e0", "jy2"))
        ex = spin_expectations(res.ground, p)
        total = ex["jx2"] + ex["jy2"] + ex["jz2"]
        assert total == pytest.approx(p.j * (p.j + 1), abs=1e-9)
