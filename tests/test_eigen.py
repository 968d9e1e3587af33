import itertools

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded, eigh

from dicke_ed import eigen, hamiltonian
from dicke_ed.cli import main
from dicke_ed.errors import ConvergenceError
from dicke_ed.eigen import ShiftTest, ground_state
from dicke_ed.hamiltonian import (
    assemble_dcs,
    assemble_dfs,
    project_parity,
)
from dicke_ed.model import ModelParams, critical_coupling

from oracles import lowest_pair, norm_estimate, parity_operator

LAMBDAS = (0.0, 0.3, 0.5, 1.0, 2.0)
SECTORS = ("even", "odd", "full")
# dfs:20 is boson-major in a parity sector for N <= 32; dfs:4 at N = 32 is not.
# The last case is the strong-coupling doublet, |E_even - E_odd| < 1e-6.
CERT_GRID = list(itertools.product(
    (1, 2, 3, 5, 8, 13, 32), LAMBDAS,
    (("dcs", 4), ("dcs", 7), ("dfs", 20)), SECTORS,
)) + list(itertools.product((32,), LAMBDAS, (("dfs", 4),), SECTORS)) + [
    (8, 1.0, ("dcs", 24), "full")]
# D = 10 at the critical coupling: the displaced-basis band is trimmed to K + w rows
LAM_C10 = critical_coupling(1.0, 10.0)
TRIM_GRID = list(itertools.product(
    (16, 17, 32), (LAM_C10,), (("dcs", 48), ("dcs", 64)), ("even", "odd")))


def sector_matrix(n_atoms, lam, basis, n_tr, sector, delta=1.0):
    assemble = assemble_dcs if basis == "dcs" else assemble_dfs
    h = assemble(ModelParams(n_atoms, 1.0, delta, lam), n_tr)
    return h if sector == "full" else project_parity(h, sector)


class TestGroundState:
    def test_decoupled_limit_shift_invert(self):
        p = ModelParams(16, 1.0, 1.3, 0.0)
        gs = ground_state(assemble_dcs(p, 10))
        assert gs.energy == pytest.approx(-p.j * p.delta, abs=1e-10)
        assert gs.method == "shift-invert"

    def test_state_invariants(self):
        p = ModelParams(12, 1.0, 1.0, 0.6)
        h = project_parity(assemble_dcs(p, 12), "even")
        gs = ground_state(h)
        assert np.linalg.norm(gs.vector) == pytest.approx(1.0, abs=1e-12)
        assert gs.residual < 1e-10 * norm_estimate(h) * 10
        assert gs.sector == "even"
        assert gs.basis == "dcs"
        assert gs.table.shape == (13, 13)

    def test_dense_and_shift_invert_agree(self):
        p = ModelParams(10, 1.0, 1.0, 0.7)
        h = assemble_dcs(p, 9)
        gd = ground_state(h, dense=True)
        gl = ground_state(h)
        assert gd.method == "dense" and gl.method == "shift-invert"
        assert gd.energy == pytest.approx(gl.energy, abs=1e-10)
        overlap = abs(gd.vector @ gl.vector)
        assert overlap == pytest.approx(1.0, abs=1e-8)

    def test_seed_independence(self):
        op = project_parity(assemble_dcs(ModelParams(20, 1.0, 1.0, 0.6), 5), "even")
        tol = 1e-10
        e1 = ground_state(op, tol=tol, seed=0).energy
        e2 = ground_state(op, tol=tol, seed=12345).energy
        assert abs(e1 - e2) <= 10 * tol * norm_estimate(op)

    def test_deterministic_for_fixed_seed(self):
        p = ModelParams(14, 1.0, 1.0, 0.8)
        h = project_parity(assemble_dcs(p, 10), "even")
        g1 = ground_state(h, seed=3)
        g2 = ground_state(h, seed=3)
        assert g1.energy == g2.energy
        assert np.array_equal(g1.vector, g2.vector)

    def test_warm_start_converges_faster(self):
        p = ModelParams(64, 1.0, 1.0, 0.5)
        h = project_parity(assemble_dcs(p, 10), "even")
        cold = ground_state(h)
        gs_small = ground_state(project_parity(assemble_dcs(p, 8), "even"))
        padded = np.zeros((65, 11))
        padded[:, :9] = gs_small.table
        warm = ground_state(h, v0=padded.reshape(-1))
        assert warm.energy == pytest.approx(cold.energy, abs=1e-9)
        assert warm.iterations <= cold.iterations

    def test_warm_start_reuses_factor(self):
        """Started from the n_tr = 64 solution, the D = 10 critical solve at
        n_tr = 96 contracts fast enough to keep its first factor; the second
        factorization is the closing certificate."""
        p = ModelParams(32, 1.0, 10.0, critical_coupling(1.0, 10.0))
        small = ground_state(project_parity(assemble_dcs(p, 64), "even"))
        h = project_parity(assemble_dcs(p, 96), "even")
        padded = np.zeros((33, 97))
        padded[:, :65] = small.table
        warm = ground_state(h, v0=padded.reshape(-1))
        assert warm.factorizations == 2
        assert warm.iterations > warm.factorizations
        exact = eigh(h.to_dense(), subset_by_index=(0, 0), eigvals_only=True)[0]
        assert warm.lower_bound <= exact
        assert warm.energy == pytest.approx(exact, rel=1e-12)

    def test_reports_factored_bandwidth(self):
        """The N = 32 bare sector at cutoff 100 factors a band S' = 17 wide;
        in sector-major order it would be n_tr + 1 = 101.  The unprojected
        matrix is solved as its two sectors, so it factors the same width."""
        full = assemble_dfs(ModelParams(32, 1.0, 1.0, 0.5), 100)
        assert ground_state(project_parity(full, "even")).bandwidth <= 18
        assert ground_state(full).bandwidth <= 18
        small = project_parity(assemble_dfs(ModelParams(32, 1.0, 1.0, 0.5), 4), "even")
        assert ground_state(small).bandwidth == 5
        assert ground_state(small, dense=True).bandwidth is None

    def test_reports_trimmed_bandwidth(self):
        """A displaced-basis solve reports the K + w rows it factored."""
        h = sector_matrix(32, LAM_C10, "dcs", 64, "even", delta=10.0)
        w = h.full.kernel_width
        assert 0 < w < 64
        assert ground_state(h).bandwidth == h.bandwidth == 65 + w

    @pytest.mark.parametrize("n_atoms,n_tr", [(5, 20), (6, 20), (8, 30), (32, 4)])
    def test_projected_bare_vector_matches_full_oracle(self, n_atoms, n_tr):
        """The expanded sector vector is the lowest parity eigenvector of the
        unprojected sector-major matrix, in both coordinate orders."""
        full = assemble_dfs(ModelParams(n_atoms, 1.0, 1.0, 0.7), n_tr)
        vals, vecs = eigh(full.to_dense())
        parity = np.einsum("ij,ij->j", vecs, parity_operator(n_atoms, n_tr).to_dense() @ vecs)
        for sector, sign in (("even", 1.0), ("odd", -1.0)):
            oracle = vecs[:, np.argmax(np.abs(parity - sign) < 1e-6)]
            h = project_parity(full, sector)
            for gs in (ground_state(h), ground_state(h, dense=True)):
                assert min(np.max(np.abs(gs.vector - oracle)),
                           np.max(np.abs(gs.vector + oracle))) < 1e-7

    @pytest.mark.parametrize("n_atoms,lam,winner", [(31, 2.0, "odd"), (32, 0.3, "even")])
    def test_full_is_the_lower_sector(self, n_atoms, lam, winner):
        """An unprojected matrix returns the lower sector's state, named by
        ``sector``, with the lower of the two bounds and the summed counts."""
        full = assemble_dcs(ModelParams(n_atoms, 1.0, 1.0, lam), 8)
        gs = ground_state(full)
        sectors = {s: ground_state(project_parity(full, s)) for s in ("even", "odd")}
        assert gs.sector == winner
        assert gs.energy == sectors[winner].energy == min(g.energy for g in sectors.values())
        assert np.array_equal(gs.vector, sectors[winner].vector)
        assert gs.lower_bound == min(g.lower_bound for g in sectors.values())
        assert gs.factorizations == sum(g.factorizations for g in sectors.values())
        assert gs.iterations == sum(g.iterations for g in sectors.values())
        assert gs.bandwidth == max(g.bandwidth for g in sectors.values())
        exact = eigh(full.to_dense(), subset_by_index=(0, 0), eigvals_only=True)[0]
        assert gs.lower_bound <= exact <= gs.energy + 1e-12 * abs(exact)

    def test_full_factors_only_sector_bands(self, monkeypatch, tmp_path, capsys):
        """During a ``--parity full`` solve every ShiftTest is built on the band
        of one parity sector, never on the unprojected matrix."""
        seen = []

        class Recording(ShiftTest):
            def __init__(self, ab, dropped=0.0):
                seen.append(ab.copy())
                super().__init__(ab, dropped)

        monkeypatch.setattr(eigen, "ShiftTest", Recording)
        assert main(["solve", "--n-atoms", "31", "--lambda", "2", "--parity", "full",
                     "--workers", "1", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        p = ModelParams(31, 1.0, 1.0, 2.0)
        assert seen
        for ab in seen:
            # a sector of N = 31 holds 16 spin sectors of n_tr + 1 bosons each
            h = assemble_dcs(p, ab.shape[1] // 16 - 1)
            assert any(np.array_equal(ab, project_parity(h, sector).band())
                       for sector in ("even", "odd"))

    def test_bad_tolerance(self):
        op = assemble_dcs(ModelParams(3, 1.0, 1.0, 0.5), 2)
        with pytest.raises(ValueError):
            ground_state(op, tol=0.0)
        with pytest.raises(ValueError, match="finite"):
            ground_state(op, tol=np.inf)


class TestCertificate:
    def test_matches_dense_over_grid(self):
        """Every solve is certified and agrees with dense eigh, including
        lambda = 0, where at small N the Gershgorin bound equals E0, and the
        D = 10 cases that factor a trimmed band (dense eigh of the whole
        matrix)."""
        bad = []
        grid = [(*case, 1.0) for case in CERT_GRID] + [(*case, 10.0) for case in TRIM_GRID]
        for n_atoms, lam, (basis, n_tr), sector, delta in grid:
            h = sector_matrix(n_atoms, lam, basis, n_tr, sector, delta)
            exact = eigh(h.to_dense(), subset_by_index=(0, 0), eigvals_only=True)[0]
            gs = ground_state(h)
            trimmed = basis == "dcs" and gs.bandwidth < 2 * n_tr + 1
            ok = (gs.method == "shift-invert" and (trimmed or delta == 1.0)
                  and abs(gs.energy - exact) <= 1e-9 * max(1.0, abs(exact))
                  and gs.lower_bound <= exact <= gs.energy + 1e-12 * max(1.0, abs(exact)))
            if not ok:
                bad.append((n_atoms, lam, basis, n_tr, sector, gs.energy, exact))
        assert not bad, bad

    @pytest.mark.parametrize("lam", [0.0, 0.5, 2.0])
    def test_shift_at_or_above_e0_refused(self, lam):
        h = sector_matrix(8, lam, "dcs", 6, "even")
        e0 = eigh(h.to_dense(), subset_by_index=(0, 0), eigvals_only=True)[0]
        test = ShiftTest(h.band())
        gap = 1e-6 * max(1.0, abs(e0))
        assert test.lowest <= e0
        assert test.below_spectrum(test.lowest - 2.0 * test.slack)
        assert test.below_spectrum(e0 - gap)
        for sigma in (e0, e0 + gap, e0 + 1.0):
            assert not test.below_spectrum(sigma)

    @pytest.mark.parametrize("n_atoms", [16, 17])
    @pytest.mark.parametrize("sector", SECTORS)
    def test_forced_drop_keeps_the_proofs(self, monkeypatch, n_atoms, sector):
        """At a drop level of 1e-3 the trimmed band's lowest eigenvalue lies
        up to 1.6e-4 above E0, far past the factorization slack; the dropped
        norm in the slack still refuses a shift at E0, and the returned
        window still holds it."""
        monkeypatch.setattr(hamiltonian, "_DROP_LEVEL", 1e-3)
        h = sector_matrix(n_atoms, LAM_C10, "dcs", 24, sector, delta=10.0)
        e0 = eigh(h.to_dense(), subset_by_index=(0, 0), eigvals_only=True)[0]
        assert h.bandwidth < 49 and h.dropped > 1e-3
        test = ShiftTest(h.band(), h.dropped)
        assert test.lowest - 2.0 * test.slack <= e0
        assert not test.below_spectrum(e0)
        gs = ground_state(h, tol=1e-2)
        assert gs.lower_bound <= e0 <= gs.energy

    def test_failed_closing_certificate_raises(self):
        """Started on an excited eigenvector, the residual is already tiny; the
        closing factorization finds the spectrum below it and refuses."""
        h = sector_matrix(6, 0.7, "dcs", 6, "even")
        vals, vecs = eigh(h.to_dense(), subset_by_index=(0, 1))
        with pytest.raises(ConvergenceError) as info:
            ground_state(h, v0=h.expand(vecs[:, 1]))
        assert info.value.residual is not None
        assert 0.0 <= info.value.residual <= 1e-10 * abs(vals[1])


class TestLapackPair:
    """ShiftTest calls LAPACK dpbtrf/dpbtrs directly; scipy.linalg's banded
    Cholesky pair, which calls the same routines, is the reference."""

    @pytest.mark.parametrize("n_atoms,basis,n_tr,sector,order", [
        (12, "dcs", 5, "even", "sector"),
        (13, "dcs", 4, "odd", "sector"),
        (13, "dcs", 7, "full", "sector"),
        (12, "dfs", 20, "even", "boson"),
        (13, "dfs", 20, "odd", "boson"),
        (32, "dfs", 4, "even", "sector"),
        (31, "dfs", 4, "odd", "sector"),
        (12, "dfs", 20, "full", "sector"),
    ])
    def test_bit_identical_to_scipy_linalg(self, n_atoms, basis, n_tr, sector, order):
        h = sector_matrix(n_atoms, 0.7, basis, n_tr, sector)
        assert getattr(h, "boson_major", False) == (order == "boson")
        vals = eigh(h.to_dense(), eigvals_only=True)
        x0 = np.random.default_rng(n_atoms).standard_normal(h.dim)
        test = ShiftTest(h.band())
        outcomes = []
        for sigma in (vals[0] - 1.0, 0.5 * (vals[0] + vals[-1]), vals[-1] + 1.0):
            ok = test.below_spectrum(sigma)
            ref = np.array(h.band(), order="F")
            ref[0] -= sigma + test.slack
            try:  # factors in place, so ``ref`` holds the factor
                assert cholesky_banded(ref, overwrite_ab=True, lower=True,
                                       check_finite=False) is ref
                ref_ok = True
            except LinAlgError:
                ref_ok = False
            assert ok == ref_ok
            # on failure both hold LAPACK's partial factor
            assert test.work.tobytes(order="F") == ref.tobytes(order="F")
            if ok:
                x, _, _ = test.step(h, x0)
                y = cho_solve_banded((ref, True), x0, check_finite=False)
                y /= np.linalg.norm(y)
                assert x.tobytes() == y.tobytes()
            outcomes.append(ok)
        assert outcomes == [True, False, False]

    def test_illegal_argument_is_not_read_as_indefinite(self, monkeypatch):
        """dpbtrf's info < 0 (an empty band here) raises, not False."""
        real = eigen._dpbtrf
        monkeypatch.setattr(eigen, "_dpbtrf", lambda ab, **kw: real(
            np.zeros((0, ab.shape[1]), order="F"), **kw))
        test = ShiftTest(sector_matrix(8, 0.5, "dcs", 6, "even").band())
        with pytest.raises(ValueError, match="illegal value in argument 3 of dpbtrf"):
            test.below_spectrum(test.lowest - 1.0)


class TestLowestPair:
    def test_decoupled_gap(self):
        p = ModelParams(4, 1.0, 0.7, 0.0)
        g0, g1 = lowest_pair(assemble_dcs(p, 8))
        assert g1.energy - g0.energy == pytest.approx(0.7, abs=1e-8)

    def test_strong_coupling_doublet(self):
        p = ModelParams(8, 1.0, 1.0, 1.0)  # alpha = 4
        g0, g1 = lowest_pair(assemble_dcs(p, 24))
        assert g1.energy - g0.energy < 1e-6
        assert abs(g0.vector @ g1.vector) < 1e-8

    def test_gap_minimum_sits_in_critical_window(self):
        """Within-sector excitation gap versus coupling dips near the critical
        point (precursor of the transition); doublet partner excluded by
        projecting, so the strong-coupling side rises again."""
        lam_c = critical_coupling(1.0, 1.0)
        fracs = (0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0)
        gaps = []
        for f in fracs:
            p = ModelParams(16, 1.0, 1.0, f * lam_c)
            g0, g1 = lowest_pair(project_parity(assemble_dcs(p, 32), "even"))
            gaps.append(g1.energy - g0.energy)
        best = fracs[int(np.argmin(gaps))]
        assert 0.9 <= best <= 1.5
