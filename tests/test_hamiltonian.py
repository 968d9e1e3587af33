import io
import math

import numpy as np
import pytest
from scipy.linalg import eigh

from dicke_ed import hamiltonian
from dicke_ed.errors import DimensionCapError
from dicke_ed.hamiltonian import (
    assemble_dcs,
    assemble_dfs,
    dump_coo,
    project_parity,
)
from dicke_ed.eigen import ground_state
from dicke_ed.model import ModelParams, critical_coupling

from oracles import (
    dense,
    displaced_truncated_ground,
    kron_original,
    kron_rotated,
    ladder_coeff,
    norm_estimate,
    oracle_ground,
    parity_coordinates,
    parity_expand,
    parity_operator,
    parity_restrict,
)

PARAM_GRID = [
    ModelParams(2, 1.0, 1.0, 0.45),
    ModelParams(3, 1.0, 0.7, 0.8),
    ModelParams(4, 2.0, 1.0, 1.1),
    ModelParams(6, 1.0, 1.0, 0.5),
]


class TestSpinLadder:
    @pytest.mark.parametrize("n_atoms", [1, 2, 3, 8, 1024, 4096, 65536])
    @pytest.mark.parametrize("omega,delta", [(1.0, 1.0), (0.7, 2.3)])
    def test_vectorized_ladder_equals_scalar_bits(self, n_atoms, omega, delta):
        p = ModelParams(n_atoms, omega, delta, 0.4)
        scalar = [ladder_coeff(p.j, n, +1) for n in p.sector_values()[:-1]]
        assert p.spin_ladder().tobytes() == np.array(scalar).tobytes()
        coup = np.array([-delta * c for c in scalar]).tobytes()
        assert assemble_dcs(p, 0).spin_coup.tobytes() == coup
        assert assemble_dfs(p, 0).spin_coup.tobytes() == coup


class TestAssembly:
    @pytest.mark.parametrize("params", PARAM_GRID, ids=str)
    def test_dfs_equals_kron_oracle(self, params):
        """Bare-basis matrix must agree entry-wise with an independent kron build
        at identical truncation (up to the basis ordering permutation)."""
        n_tr = 9
        H = dense(assemble_dfs(params, n_tr))
        O = kron_rotated(params.n_atoms, params.omega, params.delta, params.lam, n_tr)
        # package layout is sector-major, oracle is boson-major: permute
        S, K = params.n_atoms + 1, n_tr + 1
        perm = np.array([l * S + i for i in range(S) for l in range(K)])
        assert np.max(np.abs(H - O[np.ix_(perm, perm)])) < 1e-12

    @pytest.mark.parametrize("params", PARAM_GRID, ids=str)
    def test_hermiticity(self, params):
        for assemble in (assemble_dcs, assemble_dfs):
            H = dense(assemble(params, 8))
            assert np.max(np.abs(H - H.T)) < 1e-12

    def test_rotated_equals_original_frame_spectrum(self):
        e_rot = np.linalg.eigvalsh(kron_rotated(3, 1.0, 1.0, 0.7, 30))[:6]
        e_orig = np.linalg.eigvalsh(kron_original(3, 1.0, 1.0, 0.7, 30))[:6]
        assert np.max(np.abs(e_rot - e_orig)) < 1e-12

    def test_decoupled_limit_blocks(self):
        p = ModelParams(4, 1.0, 1.3, 0.0)
        h = assemble_dcs(p, 5)
        for i in range(p.n_atoms):
            expected = h.spin_coup[i] * np.eye(6)
            assert np.allclose(h.spin_coup[i] * h.kernel_up, expected, atol=1e-15)
        gs = ground_state(h)
        assert gs.energy == pytest.approx(-p.j * p.delta, abs=1e-10)
        gd = ground_state(assemble_dfs(p, 5))
        assert gd.energy == pytest.approx(-p.j * p.delta, abs=1e-10)

    def test_single_atom_vs_dense_oracle(self):
        p = ModelParams(1, 1.0, 1.0, 0.5)
        vals, _ = oracle_ground(1, 1.0, 1.0, 0.5, 400)
        gs = ground_state(assemble_dcs(p, 24))
        assert gs.energy == pytest.approx(vals[0], abs=1e-8)

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(11)
        for params in PARAM_GRID[:2]:
            for assemble in (assemble_dcs, assemble_dfs):
                h = assemble(params, 7)
                H = dense(h)
                for _ in range(3):
                    x = rng.standard_normal(h.dim)
                    assert np.allclose(h.matvec(x), H @ x, atol=1e-12)

    def test_norm_estimate_bounds_spectrum(self):
        for params in PARAM_GRID:
            for assemble in (assemble_dcs, assemble_dfs):
                h = assemble(params, 8)
                top = np.max(np.abs(np.linalg.eigvalsh(dense(h))))
                assert norm_estimate(h) >= top

    def test_dimension_and_cap(self):
        p = ModelParams(8, 1.0, 1.0, 0.4)
        assert assemble_dcs(p, 11).dim == 9 * 12
        with pytest.raises(DimensionCapError):
            assemble_dcs(p, 11, max_dim=100)

    def test_dump_coo_round_trip(self):
        """The dump is the whole displaced-basis matrix, every kernel entry;
        a bare-basis matrix is refused, not written wrong."""
        p = ModelParams(3, 1.0, 1.0, 0.6)
        with pytest.raises(ValueError, match="displaced basis"):
            dump_coo(assemble_dfs(p, 4), io.StringIO())
        h = assemble_dcs(p, 4)
        buf = io.StringIO()
        n_lines = dump_coo(h, buf)
        M = np.zeros((h.dim, h.dim))
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == n_lines
        for line in lines:
            r, c, v = line.split()
            M[int(r), int(c)] = float(v)
        assert np.allclose(M, dense(h), atol=1e-15)


class TestVariationalStructure:
    def test_monotone_in_truncation_both_bases(self):
        p = ModelParams(6, 1.0, 1.0, 0.8)
        for assemble in (assemble_dcs, assemble_dfs):
            energies = [
                ground_state(assemble(p, n_tr)).energy for n_tr in (2, 4, 6, 9, 14, 20)
            ]
            assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))

    def test_dfs_approaches_dcs_from_above(self):
        p = ModelParams(8, 1.0, 1.0, 1.0)
        e_dcs = ground_state(assemble_dcs(p, 30)).energy
        prev = math.inf
        for n_tr in (10, 20, 40, 70):
            e = ground_state(assemble_dfs(p, n_tr)).energy
            assert e <= prev + 1e-12
            assert e >= e_dcs - 1e-9
            prev = e
        assert prev == pytest.approx(e_dcs, abs=1e-7)

    def test_dcs_beats_severely_truncated_bare_basis_at_strong_coupling(self):
        # displaced tower at n_tr=6 below the bare tower at n_tr=100 once the
        # boson displacement overflows the bare cutoff
        p = ModelParams(32, 1.0, 1.0, 2.0)
        e_dcs6 = ground_state(project_parity(assemble_dcs(p, 6), "even")).energy
        e_dfs100 = ground_state(project_parity(assemble_dfs(p, 100), "even")).energy
        assert e_dcs6 < e_dfs100 - 1.0

    def test_converged_bare_cutoff_bounds_small_displaced_truncation(self):
        # at N=32, lambda=1 the bare cutoff 100 is converged, so the variational
        # E(dcs,6) cannot lie below it (criterion 3 is therefore posed at lambda=2)
        p = ModelParams(32, 1.0, 1.0, 1.0)

        def even(assemble, n_tr):
            return ground_state(project_parity(assemble(p, n_tr), "even")).energy

        e_dfs100 = even(assemble_dfs, 100)
        assert e_dfs100 == pytest.approx(even(assemble_dfs, 150), abs=1e-10)
        assert e_dfs100 == pytest.approx(even(assemble_dcs, 24), abs=1e-10)
        assert even(assemble_dcs, 6) >= e_dfs100

    @pytest.mark.parametrize("ratio", [1.0, 1.55, 2.0])
    def test_truncated_dcs_matches_displaced_oracle(self, ratio):
        """Even-sector E(dcs,4) at N=16 against an independent projection of the
        dense matrix onto displaced Fock vectors."""
        lam = ratio * critical_coupling(1.0, 1.0)
        p = ModelParams(16, 1.0, 1.0, lam)
        e = ground_state(project_parity(assemble_dcs(p, 4), "even")).energy
        assert e == pytest.approx(displaced_truncated_ground(16, 1.0, 1.0, lam, 4, 120), abs=1e-10)

    @pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
    def test_basis_equivalence_when_converged(self, n_atoms):
        for lam in (0.5, 1.0):
            p = ModelParams(n_atoms, 1.0, 1.0, lam)
            e_dcs = ground_state(assemble_dcs(p, 32)).energy
            e_dfs = ground_state(assemble_dfs(p, 250)).energy
            assert e_dcs == pytest.approx(e_dfs, abs=1e-8)


class TestParity:
    @pytest.mark.parametrize("params", PARAM_GRID, ids=str)
    def test_involution_exact(self, params):
        n_tr = 6
        P = parity_operator(params.n_atoms, n_tr)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(P.dim)
        assert np.array_equal(P.apply(P.apply(x)), x)

    @pytest.mark.parametrize("params", PARAM_GRID, ids=str)
    def test_commutes_with_both_assemblies(self, params):
        n_tr = 7
        P = parity_operator(params.n_atoms, n_tr).to_dense()
        for assemble in (assemble_dcs, assemble_dfs):
            H = dense(assemble(params, n_tr))
            assert np.max(np.abs(H @ P - P @ H)) < 1e-10

    def test_ground_state_is_parity_eigenvector(self):
        p = ModelParams(8, 1.0, 1.0, 0.3)
        h = assemble_dcs(p, 10)
        gs = ground_state(h)
        P = parity_operator(8, 10)
        pv = P.apply(gs.vector)
        assert np.linalg.norm(pv - gs.vector) < 1e-8  # even sector

    @pytest.mark.parametrize("n_atoms,n_tr", [(4, 8), (5, 6)])
    def test_sector_spectra_merge_to_full(self, n_atoms, n_tr):
        p = ModelParams(n_atoms, 1.0, 1.0, 0.8)
        for assemble in (assemble_dcs, assemble_dfs):
            h = assemble(p, n_tr)
            he, ho = project_parity(h, "even"), project_parity(h, "odd")
            assert he.dim + ho.dim == h.dim
            merged = np.sort(np.concatenate([
                np.linalg.eigvalsh(dense(he)),
                np.linalg.eigvalsh(dense(ho)),
            ]))
            full = np.linalg.eigvalsh(dense(h))
            assert np.max(np.abs(merged - full)) < 1e-10

    def test_projection_preserves_ground_energy(self):
        p = ModelParams(16, 1.0, 1.0, 0.5)
        h = assemble_dcs(p, 16)
        e_full = ground_state(h).energy
        e_even = ground_state(project_parity(h, "even")).energy
        assert e_even == pytest.approx(e_full, abs=1e-9)

    def test_expand_restrict_isometry(self):
        p = ModelParams(5, 1.0, 1.0, 0.7)
        h = assemble_dcs(p, 6)
        rng = np.random.default_rng(9)
        for sector in ("even", "odd"):
            hp = project_parity(h, sector)
            u = rng.standard_normal(hp.dim)
            x = hp.expand(u)
            assert np.linalg.norm(x) == pytest.approx(np.linalg.norm(u), rel=1e-13)
            assert np.allclose(hp.restrict(x), u, atol=1e-13)

    @pytest.mark.parametrize("n_atoms", [*range(1, 10), 31, 32, 128])
    def test_parity_map_matches_its_definition(self, n_atoms):
        """``expand`` and ``restrict`` equal, byte for byte, the oracles built
        one state at a time from the sector basis's definition, and the
        matrix of ``restrict`` is the transpose of that of ``expand``.  The
        map's upper and mirror indices cover every full state the projection
        keeps exactly once.  Both bases, both sectors, and the bare basis on
        both sides of the switch to boson-major order (S' < K)."""
        p = ModelParams(n_atoms, 1.0, 0.8, 0.9)
        S = n_atoms + 1
        layer = S // 2 + S % 2
        cases = [(assemble_dcs, n_tr) for n_tr in (0, 3, 6)]
        cases += [(assemble_dfs, n_tr) for n_tr in (0, 3, 20, 100)]
        rng = np.random.default_rng(n_atoms)
        orders = set()
        for assemble, n_tr in cases:
            K = n_tr + 1
            for sector in ("even", "odd"):
                h = project_parity(assemble(p, n_tr), sector)
                assert h.boson_major == (assemble is assemble_dfs and layer < K)
                orders.add((h.basis, h.boson_major))
                coords = parity_coordinates(h)
                assert h.dim == len(coords)
                u, x = rng.standard_normal(h.dim), rng.standard_normal(S * K)
                assert h.expand(u).tobytes() == parity_expand(h, u).tobytes()
                assert h.restrict(x).tobytes() == parity_restrict(h, x).tobytes()
                if h.dim <= 400:
                    E = np.column_stack([h.expand(e) for e in np.eye(h.dim)])
                    R = np.column_stack([h.restrict(e) for e in np.eye(S * K)])
                    assert np.array_equal(R, E.T)
                sign = 1 if sector == "even" else -1
                kept = [i * K + k for i in range(S) for k in range(K)
                        if 2 * i != S - 1 or (-1) ** k == sign]
                states = np.concatenate([h._up, h._mirror[h._mirror != h._up]])
                assert np.array_equal(np.sort(states), kept)
        assert ("dfs", True) in orders and ("dfs", False) in orders

    @pytest.mark.parametrize("n_atoms", [1, 2, 5, 6, 31, 32])
    def test_projected_band_matches_matvec(self, monkeypatch, n_atoms):
        """The band (centre coupling for even N, fold for odd N) equals the
        matrix of the expand/restrict round trip, column by column; at drop
        level 0 the displaced-basis band keeps every kernel entry.  The bare
        basis is checked on both sides of the switch to boson-major order,
        which it takes when the layer width S' (kept sectors, plus the centre)
        is below K = n_tr + 1, with a band S' wide."""
        monkeypatch.setattr(hamiltonian, "_DROP_LEVEL", 0.0)
        p = ModelParams(n_atoms, 1.0, 0.8, 0.9)
        layer = (n_atoms + 1) // 2 + (n_atoms + 1) % 2
        cases = [(assemble_dcs, n_tr) for n_tr in (0, 3, 6)]
        cases += [(assemble_dfs, n_tr) for n_tr in (0, 3, 4, 6, 20, 60)]
        for assemble, n_tr in cases:
            for sector in ("even", "odd"):
                hp = project_parity(assemble(p, n_tr), sector)
                cols = np.column_stack([hp.matvec(e) for e in np.eye(hp.dim)])
                ab = hp.band()
                assert ab.flags.f_contiguous
                assert np.max(np.abs(dense(ab) - cols)) < 1e-12
                boson_major = assemble is assemble_dfs and layer < n_tr + 1
                assert hp.boson_major == boson_major
                width = layer if boson_major else hp.full.bandwidth
                assert hp.bandwidth == ab.shape[0] - 1 == width

    @pytest.mark.parametrize("n_atoms", [16, 17])
    @pytest.mark.parametrize("level", [None, 1e-3])
    def test_trimmed_band_is_the_leading_rows(self, monkeypatch, n_atoms, level):
        """The displaced-basis band keeps the first K + w + 1 rows of the whole
        band, assembled at drop level 0, in both parity sectors (centre
        coupling for even N, fold for odd N); ``dropped`` bounds the 2-norm of
        the rest, and the whole band is the matrix, column by column through
        matvec.  The raised drop level makes the dropped part large enough to
        see."""
        if level is not None:
            monkeypatch.setattr(hamiltonian, "_DROP_LEVEL", level)
        p = ModelParams(n_atoms, 1.0, 10.0, critical_coupling(1.0, 10.0))
        full = assemble_dcs(p, 48)
        w = full.kernel_width
        assert 0 < w < 48
        monkeypatch.setattr(hamiltonian, "_DROP_LEVEL", 0.0)
        untrimmed = assemble_dcs(p, 48)
        for sector in ("even", "odd"):
            h = project_parity(full, sector)
            ab, whole = h.band(), project_parity(untrimmed, sector).band()
            assert ab.flags.f_contiguous
            assert ab.shape[0] == h.bandwidth + 1 == 49 + w + 1
            assert whole.shape[0] == 2 * 49
            assert np.array_equal(ab, whole[: ab.shape[0]])
            H = dense(whole)
            assert np.linalg.norm(H - dense(ab), 2) <= h.dropped
            cols = np.column_stack([h.matvec(e) for e in np.eye(h.dim)])
            assert np.max(np.abs(H - cols)) < 1e-12
            assert np.max(np.abs(dense(h) - cols)) < 1e-12

    def test_strong_coupling_doublet(self):
        p = ModelParams(8, 1.0, 1.0, 1.0)  # alpha = 4
        h = assemble_dcs(p, 24)
        e_even = ground_state(project_parity(h, "even")).energy
        e_odd = ground_state(project_parity(h, "odd")).energy
        assert abs(e_even - e_odd) < 1e-6

    def test_bad_sector_name(self):
        p = ModelParams(4, 1.0, 1.0, 0.4)
        with pytest.raises(ValueError):
            project_parity(assemble_dcs(p, 4), "both")
