"""Independent dense oracles for the test suite.

Everything here is built from first principles with plain numpy/scipy
(operator matrices via np.kron in boson (x) spin ordering, which differs from
the package's sector-major layout on purpose) so that agreement with the
package is a genuine cross-check, not a tautology.
"""

import math
from dataclasses import dataclass
from decimal import Decimal, getcontext
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
from scipy.linalg import eigh, expm
from scipy.optimize import minimize

from dicke_ed.dcs_basis import _RESCALE_HI, _RESCALE_LO, OverlapKernel
from dicke_ed.hamiltonian import gershgorin
from dicke_ed.observables import spin_expectations


def ladder_coeff(j: float, m: float, sign: int) -> float:
    """Half the matrix element of J+/J- in the |j, m> basis.

    Returns (1/2) * sqrt(j(j+1) - m(m+sign)), i.e. the coefficient
    j_m^(+-) multiplying |j, m+-1> when (J+ + J-)/2 acts on |j, m>.
    Returns 0 when the target state falls outside the multiplet.  The scalar
    route that ``ModelParams.spin_ladder`` vectorizes, one element at a time.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if abs(m) > j + 1e-12:
        raise ValueError(f"|m| = {abs(m)} exceeds j = {j}")
    val = j * (j + 1.0) - m * (m + sign)
    if val <= 0.0:
        return 0.0
    return 0.5 * math.sqrt(val)


def magnetization_x(gs, params) -> float:
    """Scaled polarization deficit B_N = 1 - <J_x>_rot / j.

    Pinned by the decoupled limit (B_N = 0 at lam = 0) and the strong-coupling
    limit (B_N -> 1); at the critical coupling B_N ~ N^(-2/3).
    """
    return 1.0 - spin_expectations(gs, params)["jx"] / params.j


def berry_phase(gs, params) -> float:
    """Geometric phase of the ground state under a 2*pi spin twist: 2*pi*<J_x>_rot.

    Identity with magnetization_x: gamma = 2*pi*j*(1 - B_N) = -pi*N*(B_N - 1).
    """
    return 2.0 * math.pi * spin_expectations(gs, params)["jx"]


def concurrence(gs, params) -> float:
    """Scaled pairwise concurrence C_N = 1 - 4<J_y^2>/N."""
    return 1.0 - 4.0 * spin_expectations(gs, params)["jy2"] / params.n_atoms


def spin_matrices(n_atoms: int):
    """Collective spin matrices in the |j, m> basis, m ascending."""
    j = n_atoms / 2.0
    m = np.arange(n_atoms + 1) - j
    jz = np.diag(m)
    jp = np.zeros((n_atoms + 1, n_atoms + 1))
    for i in range(n_atoms):
        jp[i + 1, i] = math.sqrt(j * (j + 1) - m[i] * (m[i] + 1))
    return jz, jp, jp.T


def boson_matrices(cutoff: int):
    a = np.diag(np.sqrt(np.arange(1, cutoff + 1)), 1)
    return a, a.T


def kron_rotated(n_atoms, omega, delta, lam, cutoff):
    """Rotated-frame Hamiltonian: omega*n_b - (delta/2)(J+ + J-) + (2 lam/sqrt N)(a+adag)Jz."""
    a, adag = boson_matrices(cutoff)
    jz, jp, jm = spin_matrices(n_atoms)
    ib, isp = np.eye(cutoff + 1), np.eye(n_atoms + 1)
    return (
        omega * np.kron(adag @ a, isp)
        - 0.5 * delta * np.kron(ib, jp + jm)
        + (2.0 * lam / math.sqrt(n_atoms)) * np.kron(a + adag, jz)
    )


def kron_original(n_atoms, omega, delta, lam, cutoff):
    """Lab-frame Hamiltonian: omega*n_b + delta*Jz + (2 lam/sqrt N)(a+adag)Jx."""
    a, adag = boson_matrices(cutoff)
    jz, jp, jm = spin_matrices(n_atoms)
    ib, isp = np.eye(cutoff + 1), np.eye(n_atoms + 1)
    jx = 0.5 * (jp + jm)
    return (
        omega * np.kron(adag @ a, isp)
        + delta * np.kron(ib, jz)
        + (2.0 * lam / math.sqrt(n_atoms)) * np.kron(a + adag, jx)
    )


def kron_parity(n_atoms, cutoff):
    """Conserved parity in the rotated frame: boson parity (x) sector reversal."""
    bos = np.diag([(-1.0) ** l for l in range(cutoff + 1)])
    rev = np.zeros((n_atoms + 1, n_atoms + 1))
    for i in range(n_atoms + 1):
        rev[n_atoms - i, i] = 1.0
    return np.kron(bos, rev)


def oracle_ground(n_atoms, omega, delta, lam, cutoff, n_pairs=1):
    """Lowest eigenpair(s) of the dense rotated-frame matrix."""
    H = kron_rotated(n_atoms, omega, delta, lam, cutoff)
    vals, vecs = eigh(H, subset_by_index=(0, n_pairs - 1))
    return vals, vecs


def dense(h) -> np.ndarray:
    """Dense symmetric matrix of an assembled matrix, a parity sector, or a
    lower band array.

    An assembled matrix unpacks its loop-built band (``loop_band``), which
    holds all 2K rows the kernel blocks reach.  A sector is E^T H E, with E
    stacking ``h.expand`` over the identity, so no band writer of the package
    enters it.
    """
    if hasattr(h, "expand"):
        E = np.column_stack([h.expand(e) for e in np.eye(h.dim)])
        return E.T @ dense(h.full) @ E
    ab = h if isinstance(h, np.ndarray) else loop_band(h)
    n = ab.shape[1]
    H = np.zeros((n, n))
    for d in range(min(ab.shape[0], n)):
        idx = np.arange(n - d)
        H[idx + d, idx] = H[idx, idx + d] = ab[d, : n - d]
    return H


def lowest_pair(h):
    """Two lowest eigenpairs of an assembled (or projected) matrix, by dense
    diagonalization; vectors are expanded to the full flat basis."""
    vals, vecs = eigh(dense(h), subset_by_index=(0, 1))
    expand = getattr(h, "expand", lambda v: v)
    return tuple(
        SimpleNamespace(energy=float(vals[i]), vector=expand(vecs[:, i]))
        for i in range(2)
    )


def _loop_fill_sectors(h, ab, first: int, offset: int):
    """Write sectors first..S-1 of an assembled matrix into the zeroed lower
    band ``ab``, sector ``first`` at row and column ``offset``: the bare
    basis row by row, the displaced basis one kernel row at a time."""
    K = h.k_dim
    m = h.s_dim - first
    cols = slice(offset, offset + m * K)
    ab[0, cols] = h.diag[first:].ravel()
    coup = h.spin_coup[first:]
    if h.basis == "dfs":
        hop = np.zeros((m, K))
        hop[:, :-1] = h.boson_amp[first:, np.newaxis] * np.sqrt(np.arange(1, K))
        ab[1, cols] = hop.ravel()
        ab[K, offset: offset + (m - 1) * K] = np.repeat(coup, K)
        return
    # row (t+1, a), column (t, b) holds coup[t] * kernel_up[b, a], at band row K+a-b
    for b in range(K):
        top = min(K, ab.shape[0] - K + b)  # a trimmed band stops at its last row
        ab[K - b: K - b + top, offset + b: offset + (m - 1) * K: K] = np.outer(
            h.kernel_up[b, :top], coup)


def loop_band(h) -> np.ndarray:
    """Lower band of an assembled matrix (all 2K rows) or of a parity sector
    (``h.bandwidth`` deep), built by loops from the assembled blocks.

    A sector-major sector keeps the kept sectors' blocks; the centre states
    (even N) couple to the first kept sector with weight sqrt(2), or (odd N)
    the mirror coupling folds into its diagonal block.  A boson-major sector
    is that band, expanded to a dense matrix and permuted layer by layer.
    """
    if not hasattr(h, "expand"):
        ab = np.zeros((2 * h.k_dim, h.dim), order="F")
        _loop_fill_sectors(h, ab, 0, 0)
        return ab
    full, sign = h.full, 1.0 if h.sector == "even" else -1.0
    S, K = full.s_dim, full.k_dim
    keep = np.nonzero((-1.0) ** np.arange(K) == sign)[0] if S % 2 else np.empty(0, int)
    nc, i0 = len(keep), (S + 1) // 2
    ab = np.zeros((full.bandwidth + 1, h.dim), order="F")
    _loop_fill_sectors(full, ab, i0, nc)
    B = full.spin_coup[i0 - 1] * (np.eye(K) if full.kernel_up is None else full.kernel_up)
    if S % 2:
        ab[0, :nc] = full.diag[S // 2, keep]
        for c, k in enumerate(keep):
            top = min(K, ab.shape[0] - nc + c)
            ab[nc - c: nc - c + top, c] = math.sqrt(2.0) * B[k, :top]
    else:
        fold = sign * B.T * np.where(np.arange(K) % 2, -1.0, 1.0)
        for b in range(K):
            ab[: K - b, b] += fold[b:, b]
    if not h.boson_major:
        return ab
    # layer k: the centre state if kept, then sector i0 + t at nc + t*K + k
    order = [i for k in range(K)
             for i in ([int(np.searchsorted(keep, k))] if k in keep else [])
             + [nc + t * K + k for t in range(S - i0)]]
    H = dense(ab)[np.ix_(order, order)]
    band = np.zeros((h.bandwidth + 1, h.dim), order="F")
    for d in range(min(band.shape[0], h.dim)):
        band[d, : h.dim - d] = np.diagonal(H, -d)
    return band


def parity_coordinates(h) -> list:
    """(sector index, boson number) of each coordinate of a parity sector,
    in order, as the ``ProjectedHamiltonian`` docstring lists them.

    Sector-major: the kept centre states (even N; (-1)^k equal to the sector
    sign), then each upper sector's K states.  Boson-major: layer by layer in
    k, the centre state when kept, then the upper sectors."""
    S, K = h.full.s_dim, h.full.k_dim
    sign = 1 if h.sector == "even" else -1
    kept = [k for k in range(K) if S % 2 and (-1) ** k == sign]
    upper = range((S + 1) // 2, S)
    if h.boson_major:
        return [(i, k) for k in range(K) for i in ([S // 2] if k in kept else []) + list(upper)]
    return [(S // 2, k) for k in kept] + [(i, k) for i in upper for k in range(K)]


def parity_expand(h, u: np.ndarray) -> np.ndarray:
    """Full flat vector of sector coordinates ``u``, one state at a time: a
    centre coordinate is the bare state |0,k>, any other upper state |n,k>
    is (|n,k> + sign (-1)^k |-n,k>)/sqrt(2)."""
    S, K = h.full.s_dim, h.full.k_dim
    sign = 1 if h.sector == "even" else -1
    x = np.zeros(S * K)
    for c, (i, k) in enumerate(parity_coordinates(h)):
        if 2 * i == S - 1:
            x[i * K + k] = u[c]
        else:
            x[i * K + k] = u[c] / math.sqrt(2.0)
            x[(S - 1 - i) * K + k] = (sign * (-1) ** k) * (u[c] / math.sqrt(2.0))
    return x


def parity_restrict(h, x: np.ndarray) -> np.ndarray:
    """Sector coordinates of a full flat vector, one coordinate at a time:
    the adjoint of ``parity_expand``."""
    S, K = h.full.s_dim, h.full.k_dim
    sign = 1 if h.sector == "even" else -1
    u = np.empty(h.dim)
    for c, (i, k) in enumerate(parity_coordinates(h)):
        if 2 * i == S - 1:
            u[c] = x[i * K + k]
        else:
            u[c] = (x[i * K + k] + (sign * (-1) ** k) * x[(S - 1 - i) * K + k]) / math.sqrt(2.0)
    return u


def oracle_moments(n_atoms, omega, delta, lam, cutoff):
    """Ground-state spin moments from the dense matrix, even-parity resolved.

    When the two lowest states are quasi-degenerate the even-parity member of
    the doublet is reconstructed explicitly, matching the package convention
    of computing observables inside a fixed parity sector.
    """
    H = kron_rotated(n_atoms, omega, delta, lam, cutoff)
    vals, vecs = eigh(H, subset_by_index=(0, 1))
    v = vecs[:, 0]
    P = kron_parity(n_atoms, cutoff)
    if vals[1] - vals[0] < 1e-8:
        w = v + P @ v
        if np.linalg.norm(w) < 1e-6:
            w = vecs[:, 1] + P @ vecs[:, 1]
        v = w / np.linalg.norm(w)
    jz, jp, jm = spin_matrices(n_atoms)
    ib = np.eye(cutoff + 1)
    jx = 0.5 * (jp + jm)
    jy_im = 0.5 * (jp - jm)  # J_y = jy_im / i
    Jx = np.kron(ib, jx)
    Jz = np.kron(ib, jz)
    Jy2 = -np.kron(ib, jy_im) @ np.kron(ib, jy_im)
    return {
        "e0": float(v @ H @ v),
        "jx": float(v @ Jx @ v),
        "jz2": float(v @ Jz @ Jz @ v),
        "jy2": float(v @ Jy2 @ v),
        "energy_pair": (float(vals[0]), float(vals[1])),
    }


def displacement_expm(delta: float, size: int) -> np.ndarray:
    """exp(delta*(adag - a)) on a size-dimensional Fock space."""
    a, adag = boson_matrices(size - 1)
    return expm(delta * (adag - a))


def displaced_truncated_ground(n_atoms, omega, delta, lam, n_tr, cutoff):
    """Lowest even-parity energy of the rotated-frame matrix in a truncated displaced basis.

    The basis vectors are |m> (x) D(-g m)|k>, k = 0..n_tr, with
    g = 2 lam / (omega sqrt(N)) and D built by ``displacement_expm`` on a
    (cutoff+1)-dimensional Fock space; ``kron_rotated`` is projected onto
    them.  The parity ``kron_parity`` maps this span onto itself, so the
    even sector is the +1 eigenspace of its projection.
    """
    H = kron_rotated(n_atoms, omega, delta, lam, cutoff)
    g = 2.0 * lam / (omega * math.sqrt(n_atoms))
    m_vals = np.arange(n_atoms + 1) - n_atoms / 2.0
    spin_id = np.eye(n_atoms + 1)
    cols = []
    for i, m in enumerate(m_vals):
        D = displacement_expm(-g * m, cutoff + 1)
        # the truncated exponential is exact only while no amplitude reaches the edge
        assert np.max(np.abs(D[-1, : n_tr + 1])) < 1e-14, "cutoff too small"
        cols.extend(np.kron(D[:, k], spin_id[i]) for k in range(n_tr + 1))
    V = np.column_stack(cols)
    p_vals, p_vecs = eigh(V.T @ kron_parity(n_atoms, cutoff) @ V)
    W = V @ p_vecs[:, p_vals > 0.0]
    return float(eigh(W.T @ H @ W, subset_by_index=(0, 0), eigvals_only=True)[0])


def _laguerre_scaled(n: int, a: int, x: float) -> tuple[float, float]:
    """Associated Laguerre L_n^(a)(x) as (mantissa, log_scale).

    The value is mantissa * exp(log_scale); the split keeps the recurrence
    in range for degrees and orders far beyond double-precision overflow.
    """
    if n == 0:
        return 1.0, 0.0
    prev = 1.0
    cur = 1.0 + a - x
    log_scale = 0.0
    for i in range(1, n):
        nxt = ((2 * i + 1 + a - x) * cur - (i + a) * prev) / (i + 1)
        prev, cur = cur, nxt
        mag = max(abs(prev), abs(cur))
        if mag > _RESCALE_HI or (0.0 < mag < _RESCALE_LO):
            prev /= mag
            cur /= mag
            log_scale += math.log(mag)
    return cur, log_scale


def displaced_overlap(l: int, k: int, delta: float) -> float:
    """Matrix element <l| exp(delta*(adag - a)) |k> for real delta, one at a time.

    The scalar form of the package's vectorized Laguerre recurrence
    (``dicke_ed.dcs_basis``): the closed form for l >= k and the symmetry
    <l|D(delta)|k> = (-1)^(l-k) <k|D(delta)|l> otherwise.
    """
    if l < 0 or k < 0:
        raise ValueError("Fock indices must be non-negative")
    if delta == 0.0:
        return 1.0 if l == k else 0.0
    if l < k:
        sign = -1.0 if (k - l) % 2 else 1.0
        return sign * displaced_overlap(k, l, delta)
    d = l - k
    x = delta * delta
    mant, log_scale = _laguerre_scaled(k, d, x)
    log_pref = (
        0.5 * (math.lgamma(k + 1) - math.lgamma(l + 1))
        + d * math.log(abs(delta))
        - 0.5 * x
    )
    sign = -1.0 if (delta < 0.0 and d % 2) else 1.0
    if mant == 0.0:
        return 0.0
    if mant < 0.0:
        sign, mant = -sign, -mant
    log_total = log_pref + log_scale + math.log(mant)
    if log_total < -745.0:
        # true overlap underflows to zero
        return 0.0
    return sign * math.exp(log_total)


def scalar_kernel_table(g: float, n_tr: int) -> np.ndarray:
    """The alternating table B_{l,k}(g), one ``displaced_overlap`` call per entry."""
    size = n_tr + 1
    table = np.empty((size, size))
    for l in range(size):
        for k in range(l + 1):
            sign = -1.0 if k % 2 else 1.0
            val = sign * displaced_overlap(l, k, g)
            table[l, k] = val
            table[k, l] = val
    return table


def displacement_table(delta: float, n_tr: int) -> OverlapKernel:
    """Signed physical table <l|D(delta)|k> for l, k = 0..n_tr, already
    dressed: unlike an alternating table, it takes no further ``signed``."""
    if n_tr < 0:
        raise ValueError(f"n_tr must be >= 0, got {n_tr}")
    size = n_tr + 1
    table = np.array([[displaced_overlap(l, k, delta) for k in range(size)]
                      for l in range(size)])
    return OverlapKernel(delta=delta, table=table)


def unitarity_defect(kernel: OverlapKernel) -> float:
    """Worst deviation of a lower-half row from unit norm.

    The exact (untruncated) tables are isometries, so row norms equal 1;
    truncation chops the tail, hitting high rows first.  A small defect over
    rows l <= n_tr/2 certifies the truncated table acts like an isometry on
    the half of the space the physics lives in.
    """
    rows = kernel.n_tr // 2 + 1
    sums = np.sum(kernel.table[:rows, :] ** 2, axis=1)
    return float(np.max(np.abs(1.0 - sums)))


def overlap_sum_term(l: int, k: int, g: float) -> float:
    """Alternating-sum evaluation of B_{l,k}(g) with exact-integer factorial ratios.

    Accurate only while the largest summand stays within a few orders of
    magnitude of the result; cross-checks the Laguerre route inside that
    window.
    """
    if g == 0.0:
        if l == k:
            return -1.0 if l % 2 else 1.0
        return 0.0
    lk_fact = math.factorial(l) * math.factorial(k)
    terms = []
    for r in range(min(l, k) + 1):
        denom = (
            math.factorial(l - r) * math.factorial(k - r) * math.factorial(r)
        )
        ratio = math.sqrt(float(Fraction(lk_fact, denom * denom)))
        term = ratio * g ** (l + k - 2 * r)
        terms.append(-term if r % 2 else term)
    return math.exp(-0.5 * g * g) * math.fsum(terms)


def to_bare_table(gs, params, cutoff: int) -> np.ndarray:
    """Coefficients of a displaced-basis state in the bare Fock basis.

    Returns an (N+1, cutoff+1) table b[n, l].  The assembled eigenvectors
    carry the alternating-sign gauge of the dressed kernels, so the physical
    amplitude on |l>_bare (x) |j,n> is sum_k (-1)^k c[n,k] <l|D(-g_n)|k>.
    """
    if gs.basis != "dcs":
        raise ValueError("to_bare_table applies to displaced-basis states")
    C = gs.table
    n_vals = params.sector_values()
    K = gs.n_tr + 1
    ksigns = np.where(np.arange(K) % 2, -1.0, 1.0)
    out = np.empty((C.shape[0], cutoff + 1))
    for i, n in enumerate(n_vals):
        g = params.big_g * n
        T = np.array(
            [[displaced_overlap(l, k, -g) for k in range(K)] for l in range(cutoff + 1)]
        )
        out[i] = T @ (ksigns * C[i])
    return out


def kernel_decimal(g: str, l: int, k: int, prec: int = 220) -> Decimal:
    """The alternating overlap table entry via arbitrary-precision arithmetic."""
    getcontext().prec = prec
    G = Decimal(g)
    total = Decimal(0)
    root = (Decimal(math.factorial(l)) * Decimal(math.factorial(k))).sqrt()
    for r in range(min(l, k) + 1):
        term = (
            root
            * G ** (l + k - 2 * r)
            / (
                Decimal(math.factorial(l - r))
                * Decimal(math.factorial(k - r))
                * Decimal(math.factorial(r))
            )
        )
        total += -term if r % 2 else term
    return (-G * G / 2).exp() * total


def meanfield_energy(omega, delta, n_atoms, lam, beta, theta):
    """Product-state (coherent boson, tilted spin) energy of the lab-frame model.

    Spin coherent state at polar angle theta from -z, boson coherent amplitude
    beta: E = omega*beta^2 - (delta*N/2) cos(theta) - 2*lam*sqrt(N)*beta*sin(theta).
    """
    return (
        omega * beta**2
        - 0.5 * delta * n_atoms * math.cos(theta)
        - 2.0 * lam * math.sqrt(n_atoms) * beta * math.sin(theta)
    )


def meanfield_order_parameter(omega, delta, n_atoms, lam) -> float:
    """|beta| minimizing the product-state energy; > 0 past the instability."""
    best = None
    for b0 in (0.0, 0.5, 2.0, 8.0):
        for t0 in (0.0, 0.4, 1.0, 1.5):
            res = minimize(
                lambda x: meanfield_energy(omega, delta, n_atoms, lam, x[0], x[1]),
                [b0, t0], method="Nelder-Mead",
                options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000},
            )
            if best is None or res.fun < best.fun:
                best = res
    return abs(best.x[0])


def meanfield_critical_coupling(omega, delta, n_atoms=64, tol=1e-4) -> float:
    """Bisect the onset of a nonzero order parameter."""
    lo, hi = 1e-3, 5.0 * math.sqrt(omega * delta)
    assert meanfield_order_parameter(omega, delta, n_atoms, lo) < 1e-4
    assert meanfield_order_parameter(omega, delta, n_atoms, hi) > 1e-2
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if meanfield_order_parameter(omega, delta, n_atoms, mid) > 1e-4 * math.sqrt(n_atoms):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def holstein_primakoff_normal(omega, delta, lam) -> float:
    """Large-N limit of E0 + N*delta/2 below the critical coupling: the
    zero-point shift of the two Holstein-Primakoff polariton modes,
    (eps_+ + eps_- - omega - delta)/2, with
    eps_+-^2 = [omega^2 + delta^2 +- sqrt((delta^2 - omega^2)^2 + 16 lam^2 omega delta)]/2
    (Emary & Brandes, PRE 67, 066203 (2003))."""
    root = math.sqrt((delta**2 - omega**2) ** 2 + 16.0 * lam**2 * omega * delta)
    eps_plus = math.sqrt(0.5 * (omega**2 + delta**2 + root))
    eps_minus = math.sqrt(0.5 * (omega**2 + delta**2 - root))
    return 0.5 * (eps_plus + eps_minus - omega - delta)


@dataclass(frozen=True)
class SectorIndex:
    """Position in the working basis: J_z eigenvalue n and boson occupation k.

    The flat index is sector-major: flat = (n + j)*(n_tr + 1) + k, a bijection
    onto 0..(N+1)(n_tr+1)-1.
    """

    n: float
    k: int

    def flat(self, j: float, n_tr: int) -> int:
        i = self.n + j
        i_int = int(round(i))
        if abs(i - i_int) > 1e-9 or not (0 <= i_int <= int(round(2 * j))):
            raise ValueError(f"n = {self.n} is not a valid J_z eigenvalue for j = {j}")
        if not (0 <= self.k <= n_tr):
            raise ValueError(f"k = {self.k} outside 0..{n_tr}")
        return i_int * (n_tr + 1) + self.k

    @classmethod
    def from_flat(cls, flat: int, j: float, n_tr: int) -> "SectorIndex":
        width = n_tr + 1
        i, k = divmod(flat, width)
        if not (0 <= i <= int(round(2 * j))):
            raise ValueError(f"flat index {flat} out of range")
        return cls(n=i - j, k=k)


@dataclass(frozen=True)
class ParityOperator:
    """Signed sector-reversal: (n, k) -> (-n, k) with amplitude (-1)^k."""

    n_atoms: int
    n_tr: int

    @property
    def dim(self) -> int:
        return (self.n_atoms + 1) * (self.n_tr + 1)

    def apply(self, x: np.ndarray) -> np.ndarray:
        X = x.reshape(self.n_atoms + 1, self.n_tr + 1)
        signs = np.where(np.arange(self.n_tr + 1) % 2, -1.0, 1.0)
        return (X[::-1] * signs).reshape(-1)

    def to_dense(self) -> np.ndarray:
        return np.column_stack(
            [self.apply(col) for col in np.eye(self.dim)]
        ).T


def parity_operator(n_atoms: int, n_tr: int) -> ParityOperator:
    return ParityOperator(n_atoms=n_atoms, n_tr=n_tr)


def norm_estimate(h) -> float:
    """Gershgorin upper bound on the spectral radius of an assembled matrix;
    for a parity sector, that of the whole matrix, which bounds it too.  The
    band is loop-built (``loop_band``), not the package's."""
    lowest, highest = gershgorin(loop_band(getattr(h, "full", h)))
    return max(-lowest, highest)
