import math

import numpy as np
import pytest

from dicke_ed.errors import ConfigError
from dicke_ed.model import (
    ModelParams,
    critical_coupling,
    params_from_mapping,
)

from oracles import SectorIndex, ladder_coeff, meanfield_critical_coupling


class TestLadderCoeff:
    def test_spin_half(self):
        assert ladder_coeff(0.5, -0.5, +1) == pytest.approx(0.5, abs=1e-15)

    def test_top_of_multiplet(self):
        assert ladder_coeff(1.0, 1.0, +1) == 0.0
        assert ladder_coeff(3.0, -3.0, -1) == 0.0

    def test_j8_value(self):
        assert ladder_coeff(8.0, 0.0, +1) == pytest.approx(0.5 * math.sqrt(72.0), rel=1e-15)

    def test_hermiticity_relation(self):
        for twice_j in range(1, 12):
            j = twice_j / 2.0
            m = -j
            while m < j - 1e-9:
                assert ladder_coeff(j, m, +1) == pytest.approx(
                    ladder_coeff(j, m + 1, -1), abs=1e-14
                )
                m += 1.0

    @pytest.mark.parametrize("twice_j", [1, 2, 5, 9, 16])
    def test_algebra_closure(self, twice_j):
        """The coefficients must realize [J+,J-]=2Jz, [Jz,J+/-]=+/-J+/-, J^2=j(j+1)."""
        j = twice_j / 2.0
        dim = twice_j + 1
        m = np.arange(dim) - j
        jp = np.zeros((dim, dim))
        for i in range(dim - 1):
            jp[i + 1, i] = 2.0 * ladder_coeff(j, m[i], +1)
        jm = jp.T
        jz = np.diag(m)
        assert np.allclose(jp @ jm - jm @ jp, 2.0 * jz, atol=1e-12)
        assert np.allclose(jz @ jp - jp @ jz, jp, atol=1e-12)
        j2 = 0.5 * (jp @ jm + jm @ jp) + jz @ jz
        assert np.allclose(j2, j * (j + 1) * np.eye(dim), atol=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            ladder_coeff(1.0, 1.5, +1)
        with pytest.raises(ValueError):
            ladder_coeff(2.0, 0.0, 2)


class TestCriticalCoupling:
    def test_known_values(self):
        assert critical_coupling(1.0, 1.0) == pytest.approx(0.5, abs=1e-15)
        assert critical_coupling(1.0, 4.0) == pytest.approx(1.0, abs=1e-15)
        assert critical_coupling(2.0, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_against_meanfield_oracle(self):
        for omega, delta in ((1.0, 1.0), (1.0, 4.0)):
            mf = meanfield_critical_coupling(omega, delta)
            assert critical_coupling(omega, delta) == pytest.approx(mf, abs=1e-3)

    def test_alpha_is_one_at_critical(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            omega, delta = rng.uniform(0.1, 5.0, size=2)
            p = ModelParams(8, omega, delta, critical_coupling(omega, delta))
            assert p.alpha == pytest.approx(1.0, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            critical_coupling(0.0, 1.0)
        with pytest.raises(ValueError):
            critical_coupling(1.0, -2.0)


class TestModelParams:
    def test_derived_quantities(self):
        p = ModelParams(8, 2.0, 1.0, 0.6)
        assert p.j == 4.0
        assert p.alpha == pytest.approx(4 * 0.36 / 2.0)
        assert p.big_g == pytest.approx(2 * 0.6 / (2.0 * math.sqrt(8)))

    def test_odd_atom_number(self):
        p = ModelParams(5, 1.0, 1.0, 0.3)
        assert p.j == 2.5
        assert list(p.sector_values()) == [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5]

    def test_displacement_antisymmetry(self):
        p = ModelParams(6, 1.0, 1.3, 0.4)
        g = p.big_g * p.sector_values()
        assert np.allclose(g, -g[::-1], rtol=0.0, atol=1e-15)

    def test_step_identity(self):
        p = ModelParams(12, 1.7, 0.9, 0.35)
        assert p.big_g * math.sqrt(p.n_atoms) * p.omega / (2 * p.lam) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(0, 1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            ModelParams(4, -1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            ModelParams(4, 1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            ModelParams(4, 1.0, 1.0, -0.1)

    def test_at_critical(self):
        p = ModelParams(16, 1.0, 4.0, critical_coupling(1.0, 4.0))
        assert p.lam == pytest.approx(1.0)
        assert p.alpha == pytest.approx(1.0)


class TestConfigParsing:
    def test_lambda_key(self):
        p = params_from_mapping({"n_atoms": "8", "omega": "1", "delta": "2", "lambda": "0.5"})
        assert p == ModelParams(8, 1.0, 2.0, 0.5)

    def test_alpha_key(self):
        p = params_from_mapping({"n_atoms": 8, "omega": 1.0, "delta": 1.0, "alpha": 1.0})
        assert p.lam == pytest.approx(0.5)

    def test_defaults(self):
        p = params_from_mapping({"n_atoms": 4})
        assert (p.omega, p.delta, p.lam) == (1.0, 1.0, 0.0)

    def test_both_keys_rejected(self):
        with pytest.raises(ConfigError):
            params_from_mapping({"n_atoms": 4, "lambda": 0.1, "alpha": 0.2})

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="coupling"):
            params_from_mapping({"n_atoms": 4, "coupling": 1.0})

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="omega"):
            params_from_mapping({"n_atoms": 4, "omega": "abc"})

    def test_missing_n_atoms(self):
        with pytest.raises(ConfigError, match="n_atoms"):
            params_from_mapping({"omega": 1.0})


class TestSectorIndex:
    @pytest.mark.parametrize("n_atoms,n_tr", [(4, 3), (5, 2), (1, 6)])
    def test_flat_round_trip(self, n_atoms, n_tr):
        j = n_atoms / 2.0
        seen = set()
        for i in range(n_atoms + 1):
            for k in range(n_tr + 1):
                idx = SectorIndex(n=i - j, k=k)
                flat = idx.flat(j, n_tr)
                seen.add(flat)
                back = SectorIndex.from_flat(flat, j, n_tr)
                assert back.n == pytest.approx(idx.n)
                assert back.k == idx.k
        assert seen == set(range((n_atoms + 1) * (n_tr + 1)))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            SectorIndex(n=3.0, k=0).flat(2.0, 4)
        with pytest.raises(ValueError):
            SectorIndex(n=0.0, k=5).flat(2.0, 4)
        with pytest.raises(ValueError):
            SectorIndex.from_flat(100, 2.0, 4)
