import math

import numpy as np
import pytest

from dicke_ed import dcs_basis
from dicke_ed.dcs_basis import overlap_kernel

from oracles import (
    _laguerre_scaled,
    displaced_overlap,
    displacement_expm,
    displacement_table,
    kernel_decimal,
    overlap_sum_term,
    scalar_kernel_table,
    unitarity_defect,
)


class TestTableValues:
    def test_zero_displacement_alternating_diagonal(self):
        # the raw table at zero displacement is diag((-1)^l); the physical
        # (dressed) kernels reduce to the identity
        K = overlap_kernel(0.0, 5)
        assert np.allclose(K.table, np.diag([(-1.0) ** l for l in range(6)]), atol=0)
        assert np.allclose(K.signed("up"), np.eye(6), atol=0)
        assert np.allclose(K.signed("down"), np.eye(6), atol=0)

    def test_unit_displacement_entries(self):
        T = overlap_kernel(1.0, 2).table
        assert T[0, 0] == pytest.approx(math.exp(-0.5), rel=1e-14)
        assert T[0, 1] == pytest.approx(math.exp(-0.5), rel=1e-14)
        assert T[1, 1] == pytest.approx(0.0, abs=1e-15)

    def test_decimal_oracle_spot_checks(self):
        cases = [("0.3", 12, 7, 1e-13), ("1", 30, 30, 1e-13),
                 ("2", 25, 14, 1e-13), ("0.9", 60, 55, 1e-12)]
        for g, l, k, tol in cases:
            exact = float(kernel_decimal(g, l, k))
            got = overlap_kernel(float(g), max(l, k)).table[l, k]
            assert got == pytest.approx(exact, rel=tol), (g, l, k)

    @pytest.mark.parametrize("g,n_tr", [(0.2, 25), (0.7, 30), (1.5, 40)])
    def test_symmetry(self, g, n_tr):
        T = overlap_kernel(g, n_tr).table
        assert np.max(np.abs(T - T.T)) < 1e-14

    def test_sign_dressings_are_transposes(self):
        K = overlap_kernel(0.8, 20)
        assert np.array_equal(K.signed("up").T, K.signed("down"))

    def test_column_norms_bounded(self):
        for g in (0.1, 0.7, 2.0):
            T = overlap_kernel(g, 30).table
            norms = np.sum(T * T, axis=0)
            assert np.all(norms <= 1.0 + 1e-12)

    def test_cache_reuses_the_kept_table(self):
        """A repeated or smaller request reads the one table kept for its
        displacement: nothing is computed or copied again."""
        kept = overlap_kernel(0.5, 12).table
        for n_tr in (12, 7):
            assert np.shares_memory(overlap_kernel(0.5, n_tr).table, kept)

    def test_table_immutable(self):
        K = overlap_kernel(0.5, 6)
        with pytest.raises(ValueError):
            K.table[0, 0] = 2.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            overlap_kernel(-0.1, 4)
        with pytest.raises(ValueError):
            overlap_kernel(0.5, -1)
        with pytest.raises(ValueError):
            displaced_overlap(-1, 0, 0.5)


class TestSignConvention:
    """Eq-level pinning: the two dressings are the physical overlaps at +/-g."""

    @pytest.mark.parametrize("g", [0.01, 0.1, 0.5, 1.0, 2.0])
    def test_agreement_with_displacement_operator(self, g):
        n_tr = 30
        K = overlap_kernel(g, n_tr)
        up = K.signed("up")
        down = K.signed("down")
        for l in range(0, n_tr + 1, 3):
            for k in range(0, n_tr + 1, 3):
                assert up[l, k] == pytest.approx(
                    displaced_overlap(l, k, +g), abs=1e-12
                ), ("up", g, l, k)
                assert down[l, k] == pytest.approx(
                    displaced_overlap(l, k, -g), abs=1e-12
                ), ("down", g, l, k)

    def test_displacement_table_matches_dressings(self):
        g = 0.9
        K = overlap_kernel(g, 20)
        assert np.array_equal(K.signed("up"), displacement_table(+g, 20).table)
        assert np.array_equal(K.signed("down"), displacement_table(-g, 20).table)


class TestDisplacedOverlap:
    def test_zero_displacement(self):
        assert displaced_overlap(3, 3, 0.0) == 1.0
        assert displaced_overlap(3, 5, 0.0) == 0.0

    @pytest.mark.parametrize("d", [0.3, -0.7, 2.0])
    def test_vacuum(self, d):
        assert displaced_overlap(0, 0, d) == pytest.approx(
            math.exp(-0.5 * d * d), rel=1e-14
        )

    def test_matrix_exponential_oracle(self):
        U = displacement_expm(0.7, 300)
        assert displaced_overlap(3, 5, 0.7) == pytest.approx(U[3, 5], abs=1e-10)
        U2 = displacement_expm(-1.3, 300)
        for l, k in ((12, 4), (0, 9), (20, 20)):
            assert displaced_overlap(l, k, -1.3) == pytest.approx(U2[l, k], abs=1e-10)

    def test_transpose_symmetry(self):
        for l, k, d in ((2, 7, 0.6), (9, 3, -1.1), (5, 5, 0.4)):
            sign = (-1.0) ** (l - k)
            assert displaced_overlap(l, k, d) == pytest.approx(
                sign * displaced_overlap(k, l, d), rel=1e-13
            )

    def test_semigroup(self):
        d1, d2 = 0.4, -0.15
        for l in range(4):
            for k in range(4):
                acc = sum(
                    displaced_overlap(l, m, d1) * displaced_overlap(m, k, d2)
                    for m in range(80)
                )
                assert acc == pytest.approx(
                    displaced_overlap(l, k, d1 + d2), abs=1e-10
                )

    def test_huge_indices_stay_finite(self):
        # scale-carrying recurrence must not overflow far beyond table sizes
        v = displaced_overlap(1200, 600, 1.3)
        assert np.isfinite(v) and abs(v) <= 1.0


class TestDualRoute:
    def test_sum_route_agrees_in_window(self):
        """The direct alternating sum cross-checks the recurrence where the
        sum is well conditioned (small g, any l,k up to 60)."""
        for g in (0.2, 0.4):
            T = overlap_kernel(g, 60).table
            for l in range(45, 61, 5):
                for k in range(40, l + 1, 5):
                    assert overlap_sum_term(l, k, g) == pytest.approx(
                        T[l, k], abs=1e-11
                    ), (g, l, k)

    def test_sum_route_zero_displacement(self):
        assert overlap_sum_term(4, 4, 0.0) == 1.0
        assert overlap_sum_term(5, 5, 0.0) == -1.0
        assert overlap_sum_term(2, 3, 0.0) == 0.0


class TestUnitarityDefect:
    def test_zero_displacement(self):
        assert unitarity_defect(overlap_kernel(0.0, 10)) == 0.0

    def test_converged_truncation(self):
        # independently verified against the dense matrix exponential: the
        # exact completeness tail of row 20 at g=1, n_tr=40 is 3.2e-10
        K = overlap_kernel(1.0, 40)
        defect = unitarity_defect(K)
        assert defect < 1e-9
        U = displacement_expm(1.0, 400)
        worst = max(abs(1.0 - np.sum(U[l, :41] ** 2)) for l in range(21))
        assert defect == pytest.approx(worst, abs=1e-12)

    def test_deep_rows_tighter(self):
        K = overlap_kernel(1.0, 40)
        sums = np.sum(K.table[:19, :] ** 2, axis=1)
        assert np.max(np.abs(1.0 - sums)) < 1e-12

    def test_undertruncated(self):
        assert unitarity_defect(overlap_kernel(3.0, 4)) > 0.5


class TestVectorizedBuilder:
    """The vectorized table builder, in one pass and by growth, against the
    entry-by-entry scalar route."""

    @staticmethod
    def _forget_tables():
        dcs_basis._GROWN.clear()

    @pytest.mark.parametrize("n_tr", [0, 1, 4, 7, 64, 129, 160, 193])
    @pytest.mark.parametrize("g", [0.0, 0.03125, 0.3953, 1.58, 5.0, 12.0, 45.0, 60.0])
    def test_bit_identical_to_scalar_route(self, g, n_tr):
        """Built in one pass, and reached by growth: ascending truncations,
        then a smaller one served as the grown table's leading block.  The
        per-diagonal maxima kept with the table equal a scan of each block."""
        ref = scalar_kernel_table(g, n_tr)
        self._forget_tables()
        grown = [overlap_kernel(g, m) for m in (n_tr // 4, n_tr // 2, n_tr)]
        grown.append(overlap_kernel(g, n_tr // 3))
        self._forget_tables()
        for kernel in [overlap_kernel(g, n_tr)] + grown:
            table = kernel.table
            size = table.shape[0]
            assert np.array_equal(table, ref[:size, :size])
            assert np.array_equal(np.signbit(table), np.signbit(ref[:size, :size]))
            scan = [np.abs(np.diagonal(ref[:size, :size], -d)).max() for d in range(size)]
            assert np.array_equal(kernel.peaks, scan)

    @pytest.mark.parametrize("g,n_tr", [(60.0, 160), (45.0, 193)])
    def test_rescale_branch_exercised(self, g, n_tr):
        rescaled = [(l, k) for l in range(n_tr + 1) for k in range(l + 1)
                    if _laguerre_scaled(k, l - k, g * g)[1] != 0.0]
        assert rescaled
        table = overlap_kernel(g, n_tr).table
        assert np.all(np.isfinite(table))
        if g == 45.0:
            # here the renormalized entries survive into the table
            assert all(table[l, k] != 0.0 for l, k in rescaled)

    def test_underflow_branch_exercised(self):
        g, n_tr = 45.0, 129
        table = overlap_kernel(g, n_tr).table
        underflowed = [(l, k) for l in range(n_tr + 1) for k in range(l + 1)
                       if table[l, k] == 0.0 and _laguerre_scaled(k, l - k, g * g)[0] != 0.0]
        assert len(underflowed) > 1000
        assert np.count_nonzero(table) > 0
