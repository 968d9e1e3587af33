"""Assembly of the real symmetric eigenproblem and the parity machinery.

Working basis: |k>_n (x) |j, n>, sector-major flat layout: flat index
(n + j)*(n_tr + 1) + k.  Two assemblies share one block structure over the
sector index:

- displaced basis ("dcs"): each sector carries its own displaced oscillator;
  diagonal omega*(l - g_n^2), off-diagonal blocks -delta * j_n^(+-) times the
  sign-dressed overlap kernel.  Blocks between sectors n and n+1 all share one
  (n_tr+1)^2 kernel matrix, so a block is stored as coefficient * kernel.
- bare Fock basis ("dfs"): diagonal omega*l, spin blocks -delta * j_n^(+-)
  times the identity, plus a boson hopping term omega*g_n*sqrt(l+1) inside
  each sector (tridiagonal in l).

Only a parity sector hands over LAPACK lower band storage (``band()``), and
the solver factors nothing else; matvec serves the residuals.  ``band(out)``
rewrites a given band from set-up cached on the operator, so the solver
keeps one band per solve.  Each basis writes a sector's upper sectors with
its own writer: the displaced basis as couplings times one kernel pattern
over its sector columns, the bare basis (in either sector order) as one
scatter of its entries.  A parity sector's head, the centre states of even N
or the fold of odd N, is written once for both bases, through the parity
map.  A displaced-basis sector's band keeps only the kernel off-diagonals
above a drop level (``assemble_dcs``); matvec and ``dump_coo`` (the whole
displaced-basis matrix) keep every entry.

A parity sector has two coordinate orders, and its one parity map picks one.
Sector-major (the centre states, then each kept sector's K = n_tr + 1 boson
states) suits the displaced basis, whose dense K x K kernel blocks reach
2K - 1 below the diagonal, and puts the bare basis's spin coupling K below
it.  Boson-major (one layer per boson number k: the centre state if kept,
then the kept sectors) puts the bare basis's spin coupling next to the
diagonal and its boson hopping one layer, S' = (kept sectors per layer) rows,
below it.  A bare-basis sector uses boson-major order whenever S' < K;
everything else is sector-major.

Both matrices commute with the parity operator, which acts on the working
basis as (n, k) -> (-n, k) with amplitude (-1)^k.  The spin part of the
rotation contributes no phase: exp(i*pi*j) * exp(-i*pi*J_x) |j,n> = |j,-n>
exactly, for integer and half-integer j alike.  The construction is
self-certified by the involution and commutation tests rather than trusted
from the derivation.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dcs_basis import overlap_kernel
from .errors import DimensionCapError
from .model import ModelParams

__all__ = [
    "BlockHamiltonian",
    "ProjectedHamiltonian",
    "assemble_dcs",
    "assemble_dfs",
    "project_parity",
    "dump_coo",
    "gershgorin",
    "DEFAULT_DIM_CAP",
]

DEFAULT_DIM_CAP = 400_000
# the displaced-basis band drops a kernel tail whose norm bound is <= this * max(|diag|, 1)
_DROP_LEVEL = np.finfo(float).eps
# entries in a displaced-basis band's pattern tile: numpy's default ufunc buffer size,
# so a product over rows this long runs without buffering its broadcast operand
_TILE = 8192


def _bare_entries(h: "ProjectedHamiltonian") -> tuple[np.ndarray, np.ndarray]:
    """The bare-basis band of a parity sector's upper sectors, ``bandwidth``
    deep: flat positions in Fortran order, and values.

    The diagonal, boson hopping and spin coupling of the upper sectors sit at
    their states' coordinates, the inverse of the sector's parity map."""
    full = h.full
    K, first, rows = full.k_dim, h._layer, h.bandwidth + 1
    inv = np.empty(full.dim, dtype=np.intp)
    inv[h._up] = np.arange(h.dim)  # every upper state is a coordinate
    P = inv[first * K:].reshape(-1, K)
    hop = full.boson_amp[first:, np.newaxis] * np.sqrt(np.arange(1, K))
    coup = np.broadcast_to(full.spin_coup[first:, np.newaxis], P[1:].shape)
    a, b, values = [P, P[:, 1:], P[1:]], [P, P[:, :-1], P[:-1]], [full.diag[first:], hop, coup]
    a, b, values = (np.concatenate([x.ravel() for x in xs]) for xs in (a, b, values))
    return np.minimum(a, b) * rows + np.abs(a - b), values


@dataclass
class BlockHamiltonian:
    """Block-tridiagonal real symmetric matrix over the sector index.

    ``spin_coup[i]`` scales the block coupling sectors i and i+1 (both
    directions; the two dressings are transposes of each other).  For the
    displaced basis the block matrix is ``kernel_up`` and its transpose; for
    the bare basis it is the identity and the boson hopping lives inside the
    diagonal blocks (``boson_amp``).
    """

    params: ModelParams
    n_tr: int
    basis: str
    diag: np.ndarray = field(repr=False)
    spin_coup: np.ndarray = field(repr=False)
    kernel_up: np.ndarray | None = field(default=None, repr=False)
    boson_amp: np.ndarray | None = field(default=None, repr=False)
    kernel_width: int = 0
    dropped: float = 0.0

    @property
    def s_dim(self) -> int:
        return self.params.n_atoms + 1

    @property
    def k_dim(self) -> int:
        return self.n_tr + 1

    @property
    def dim(self) -> int:
        return self.s_dim * self.k_dim

    def matvec(self, x: np.ndarray) -> np.ndarray:
        X = x.reshape(self.s_dim, self.k_dim)
        Y = self.diag * X
        c = self.spin_coup[:, np.newaxis]
        if self.basis == "dcs":
            K = self.kernel_up
            Y[:-1] += c * (X[1:] @ K.T)
            Y[1:] += c * (X[:-1] @ K)
        else:
            Y[:-1] += c * X[1:]
            Y[1:] += c * X[:-1]
            amp = self.boson_amp[:, np.newaxis]
            lad = np.sqrt(np.arange(1, self.k_dim))
            Y[:, :-1] += amp * lad * X[:, 1:]
            Y[:, 1:] += amp * lad * X[:, :-1]
        return Y.reshape(-1)

    @property
    def bandwidth(self) -> int:
        """Lower bandwidth a sector-major parity band keeps: K + w for kernel
        blocks that keep their off-diagonals 0..w (``kernel_width``), K for
        the bare basis's identity."""
        return self.k_dim + self.kernel_width

    def _pattern(self, rows: int) -> np.ndarray:
        """Band column b of a displaced-basis sector coupled with weight 1 to
        the next, its first ``rows`` rows (at most 2K) flattened b-major: row
        K + a - b holds the kernel entry (b, a).  The other rows hold -0.0,
        which the negative couplings scale to the +0.0 of a zeroed band."""
        K = self.k_dim
        pattern = np.full((K, 2 * K), -0.0)
        b = np.arange(K)[:, np.newaxis]
        pattern[b, K - b + np.arange(K)] = self.kernel_up
        return pattern[:, :rows].ravel()

    @cached_property
    def _tile(self) -> np.ndarray:
        """``_pattern`` of a parity band (``bandwidth + 1`` rows), repeated
        over as many sectors as fill ``_TILE`` entries: at least one, and at
        most the s_dim // 2 upper sectors a parity band holds."""
        pattern = self._pattern(self.bandwidth + 1)
        return np.tile(pattern, max(1, min(self.s_dim // 2, _TILE // pattern.size)))


def _check_dim(params: ModelParams, n_tr: int, max_dim: int | None):
    if n_tr < 0:
        raise ValueError(f"n_tr must be >= 0, got {n_tr}")
    cap = DEFAULT_DIM_CAP if max_dim is None else max_dim
    dim = (params.n_atoms + 1) * (n_tr + 1)
    if dim > cap:
        raise DimensionCapError(
            f"dimension {dim} = ({params.n_atoms}+1)*({n_tr}+1) exceeds cap {cap}"
        )


def _fill_sectors(h: BlockHamiltonian, ab: np.ndarray, first: int, offset: int,
                  tile: np.ndarray):
    """Write displaced-basis sectors first, first + 1, ... of ``h`` into every
    row of the lower band ``ab``'s columns from ``offset`` on, the block of
    sector ``first`` starting at row and column ``offset``.

    Column (t, b) is spin_coup[first + t] times column b of ``_pattern``
    (zero past the last sector), with the diagonal on row 0.  ``tile`` is
    that pattern for ``ab``'s rows, repeated over q sectors.  With q = 1 each
    entry is one broadcast product.  Otherwise the sectors are short, and
    numpy would buffer a product of two broadcast operands one sector at a
    time: the couplings are copied in and multiplied by whole tiles, still
    one product per entry."""
    K, rows = h.k_dim, ab.shape[0]
    cols = ab.T[offset:].reshape(-1, K * rows)  # a view: row t holds sector first + t's columns
    m = len(cols)
    coup = h.spin_coup[first: first + m]
    body = cols[: len(coup)]
    q = tile.size // (K * rows)
    if q == 1:
        np.multiply(coup[:, np.newaxis], tile, out=body)
    else:
        body[:] = coup[:, np.newaxis]
        whole = len(body) // q * q
        tiled, rest = body[:whole].reshape(-1, tile.size), body[whole:].reshape(-1)
        np.multiply(tiled, tile, out=tiled)
        np.multiply(rest, tile[: rest.size], out=rest)
    cols[len(coup):] = 0.0
    cols.reshape(m, K, rows)[:, :, 0] = h.diag[first: first + m]


def gershgorin(ab: np.ndarray) -> tuple[float, float]:
    """(lowest, highest) Gershgorin bounds of a symmetric lower band."""
    n = ab.shape[1]
    radius = np.zeros(n)
    for d in range(1, min(ab.shape[0], n)):
        a = np.abs(ab[d, : n - d])
        radius[: n - d] += a
        radius[d:] += a
    return float(np.min(ab[0] - radius)), float(np.max(ab[0] + radius))


def assemble_dcs(params: ModelParams, n_tr: int, max_dim: int | None = None) -> BlockHamiltonian:
    """Eigenproblem in the displaced basis.

    Row (n, l): omega*(l - g_n^2) on the diagonal, coupling to sector n+1
    with weight -delta*j_n^+ and kernel (-1)^k B_{l,k}(G), to sector n-1 with
    weight -delta*j_n^- and kernel (-1)^l B_{l,k}(G).  The full basis is
    orthonormal (Dicke states are orthogonal across sectors even though the
    displaced oscillators overlap), so this is a standard eigenproblem.

    The band keeps kernel off-diagonals 0..w; ``dropped`` bounds ||E||_2 of
    the rest, E.  A row of E (full matrix or parity sector) meets at most two
    coupling blocks, one perhaps the sqrt(2)-weighted centre coupling of even
    N (the odd-N fold stays in a diagonal block), with one entry per d > w in
    each: ||E||_2 <= (1 + sqrt(2)) max|coupling| sum_{d>w} max_l |B_{l+d,l}|.
    w is the smallest width whose bound is at most eps * max(|diag|, 1).
    """
    _check_dim(params, n_tr, max_dim)
    k_arr = np.arange(n_tr + 1, dtype=float)
    n_vals = params.sector_values()
    g2 = (params.big_g * n_vals) ** 2
    diag = params.omega * (k_arr[np.newaxis, :] - g2[:, np.newaxis])
    kernel = overlap_kernel(params.big_g, n_tr)
    coup = -params.delta * params.spin_ladder()
    tail = np.append(np.cumsum(kernel.peaks[:0:-1])[::-1], 0.0)  # peaks past w, summed
    bound = (1.0 + math.sqrt(2.0)) * np.max(np.abs(coup), initial=0.0) * tail
    width = int(np.argmax(bound <= _DROP_LEVEL * max(np.max(np.abs(diag)), 1.0)))
    return BlockHamiltonian(
        params=params,
        n_tr=n_tr,
        basis="dcs",
        diag=diag,
        spin_coup=coup,
        kernel_up=kernel.signed("up"),
        kernel_width=width,
        dropped=float(bound[width]),
    )


def assemble_dfs(params: ModelParams, n_tr: int, max_dim: int | None = None) -> BlockHamiltonian:
    """Eigenproblem in the bare Fock basis truncated at boson number n_tr."""
    _check_dim(params, n_tr, max_dim)
    k_arr = np.arange(n_tr + 1, dtype=float)
    n_vals = params.sector_values()
    diag = np.broadcast_to(params.omega * k_arr, (params.n_atoms + 1, n_tr + 1)).copy()
    boson_amp = params.omega * params.big_g * n_vals
    return BlockHamiltonian(
        params=params,
        n_tr=n_tr,
        basis="dfs",
        diag=diag,
        spin_coup=-params.delta * params.spin_ladder(),
        boson_amp=boson_amp,
    )


class ProjectedHamiltonian:
    """Restriction of a BlockHamiltonian to one parity sector.

    The sector basis keeps, for every sector pair (n, -n) with n > 0, the
    combinations (|n,k> +- (-1)^k |-n,k>)/sqrt(2), and for the self-paired
    n = 0 sector (even atom number only) the bare states whose (-1)^k matches
    the sector sign.  Matvec round-trips through the full operator, which is
    exact because the full matrix commutes with the parity.

    One parity map, built here and read by ``expand``, ``restrict`` and
    ``band``, lists each coordinate's upper (or centre) state ``_up`` and its
    mirror ``_mirror`` as full flat indices, the mirror's sign ``_sgn`` =
    sign * (-1)^k (0 for a centre state) and the divisor ``_div`` (sqrt(2),
    or 1 for a centre state).  It is built sector-major and sorted layer by
    layer in k when ``boson_major`` (a bare-basis sector whose layer width S'
    is below K; see the module docstring): that sort alone decides the order.
    """

    def __init__(self, full: BlockHamiltonian, sector: str):
        if sector not in ("even", "odd"):
            raise ValueError(f"sector must be 'even' or 'odd', got {sector!r}")
        self.full = full
        self.sector = sector
        self.dropped = full.dropped  # the band keeps K + w rows (``full.bandwidth``)
        self.sign = 1.0 if sector == "even" else -1.0
        S, K = full.s_dim, full.k_dim
        self._layer = i0 = (S + 1) // 2  # S', and the first upper sector
        k = np.arange(K)
        ksign = np.where(k % 2, -self.sign, self.sign)
        centre = k[ksign > 0] if S % 2 else k[:0]
        sec = np.concatenate([np.full(len(centre), S // 2), np.repeat(np.arange(i0, S), K)])
        kk = np.concatenate([centre, np.tile(k, S - i0)])
        self.boson_major = full.basis == "dfs" and self._layer < K
        if self.boson_major:
            order = np.lexsort((sec, kk))
            sec, kk = sec[order], kk[order]
        at_centre = 2 * sec == S - 1
        self._up = sec * K + kk
        self._mirror = (S - 1 - sec) * K + kk
        self._sgn = np.where(at_centre, 0.0, ksign[kk])
        self._div = np.where(at_centre, 1.0, math.sqrt(2.0))
        self.dim = len(kk)

    @property
    def params(self):
        return self.full.params

    @property
    def basis(self):
        return self.full.basis

    @property
    def n_tr(self):
        return self.full.n_tr

    @property
    def bandwidth(self) -> int:
        """Lower bandwidth of ``band()``."""
        return self._layer if self.boson_major else self.full.bandwidth

    def expand(self, u: np.ndarray) -> np.ndarray:
        """Isometry from sector coordinates to the full flat basis."""
        x = np.zeros(self.full.dim)
        u = u / self._div
        x[self._mirror] = self._sgn * u
        x[self._up] = u  # after the mirror: a centre state is its own mirror
        return x

    def restrict(self, x: np.ndarray) -> np.ndarray:
        """Adjoint of expand."""
        return (x[self._up] + self._sgn * x[self._mirror]) / self._div

    def matvec(self, u: np.ndarray) -> np.ndarray:
        return self.restrict(self.full.matvec(self.expand(u)))

    def band(self, out: np.ndarray | None = None) -> np.ndarray:
        """The projected matrix in LAPACK lower band storage (Fortran order),
        ``bandwidth`` deep.  Given ``out``, a band of that shape in Fortran
        order, it rewrites every entry of it instead, from set-up cached on
        first use.

        The upper sectors' body is written by each basis's own writer, and
        the head once for both, through the parity map (``_head``).
        """
        ab = np.empty((self.bandwidth + 1, self.dim), order="F") if out is None else out
        flat = ab.T.reshape(-1)  # a view of ab
        if self.basis == "dfs":
            ab.fill(0.0)
            flat[self._bare[0]] = self._bare[1]
        else:
            nc = self.dim - (self.full.s_dim - self._layer) * self.full.k_dim
            ab[:, :nc] = 0.0
            _fill_sectors(self.full, ab, first=self._layer, offset=nc, tile=self.full._tile)
        at, values = self._head
        # centre entries go into zeroed columns (keeping -0.0); the fold adds
        flat[at] = values if self.full.s_dim % 2 else flat[at] + values
        return ab

    _bare = cached_property(_bare_entries)

    @cached_property
    def _head(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat band positions (Fortran order) and values of the sector's
        head, with B = spin_coup[first - 1] times the kernel (displaced) or
        the identity's nonzeros (bare) and P0 the first upper sector's
        coordinates in k order.  Even N: each kept centre state's diagonal
        (the centre sector's block is diagonal in both bases), and
        sqrt(2) * B[k, l] to P0[l].  Odd N: the mirror coupling folded
        into that sector's block, B^T * sign * (-1)^k' on its lower triangle.
        Entries past the band's edge are dropped."""
        full = self.full
        K, i0, rows = full.k_dim, self._layer, self.bandwidth + 1
        inv = np.full(full.dim, -1)  # -1: no coordinate
        inv[self._up] = np.arange(self.dim)
        centre, P0 = inv[(i0 - 1) * K: (i0 + 1) * K].reshape(2, K)
        dcs = self.basis == "dcs"
        k, l = np.divmod(np.arange(K * K), K) if dcs else (np.arange(K),) * 2
        B = full.spin_coup[i0 - 1] * (full.kernel_up.ravel() if dcs else np.ones(K))
        if full.s_dim % 2:
            kept, kc = centre[k] >= 0, np.flatnonzero(centre >= 0)
            a = np.concatenate([centre[kc], P0[l[kept]]])
            b = np.concatenate([centre[kc], centre[k[kept]]])
            values = np.concatenate([full.diag[i0 - 1, kc], math.sqrt(2.0) * B[kept]])
        else:
            lower = l >= k
            a, b = P0[l[lower]], P0[k[lower]]
            values = B[lower] * self._sgn[b]
        at, inside = np.minimum(a, b) * rows + np.abs(a - b), np.abs(a - b) < rows
        return at[inside], values[inside]


def project_parity(h: BlockHamiltonian, sector: str) -> "BlockHamiltonian | ProjectedHamiltonian":
    """Restrict an assembled matrix to the even or odd parity sector; "full"
    keeps the whole matrix, which ``ground_state`` solves as both sectors."""
    return h if sector == "full" else ProjectedHamiltonian(h, sector)


def dump_coo(h: BlockHamiltonian, fileobj) -> int:
    """Write a displaced-basis matrix as `row col value` lines (flat
    sector-major order), every kernel entry of its 2K band rows.

    Returns the number of lines written.  Debug aid; both triangles emitted.
    """
    if h.basis != "dcs":
        raise ValueError(f"dump_coo writes only the displaced basis ('dcs'), got {h.basis!r}")
    ab = np.empty((2 * h.k_dim, h.dim), order="F")
    _fill_sectors(h, ab, first=0, offset=0, tile=h._pattern(2 * h.k_dim))
    count = 0
    for d in range(ab.shape[0]):
        for c in np.nonzero(ab[d])[0]:
            fileobj.write(f"{c + d} {c} {ab[d, c]:.17g}\n")
            count += 1
            if d:
                fileobj.write(f"{c} {c + d} {ab[d, c]:.17g}\n")
                count += 1
    return count
