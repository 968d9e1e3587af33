"""Overlaps between displaced Fock states.

Fock states built on oscillators whose vacua are coherent states displaced by
a real amount are not orthogonal between frames; their mutual overlaps are
Franck-Condon-type factors with a closed form.  Everything here is real.

The table built here is the *alternating* one, ``B[l, k] = B_{l,k}(g)``,
symmetric in (l, k),

    B_{l,k}(g) = exp(-g^2/2) * sum_{r=0}^{min(l,k)}
                 (-1)^r sqrt(l! k!) g^{l+k-2r} / ((l-r)! (k-r)! r!),

which carries the overlap magnitude; the physical overlap <l| D(d) |k>,
D(d) = exp(d (adag - a)), between frames one displacement step apart is
recovered by dressing a row or column sign onto it: (-1)^l B[l, k] for a step
down in the sector ladder (d = -g) and (-1)^k B[l, k] for a step up (d = +g).
Note B(0) = diag((-1)^l): the *dressed* kernels, not the raw table, reduce to
the identity at zero displacement.  Sector pairs two steps apart use the
table at 2g.

Numerical route: the closed form via associated Laguerre polynomials,

    <l| D(g) |k> = sqrt(k!/l!) g^{l-k} exp(-g^2/2) L_k^{(l-k)}(g^2),  l >= k,

evaluated with a scale-carrying three-term recurrence, is stable for every
(l, k, g) used here (relative error grows only linearly in the degree).  The
direct alternating sum cancels catastrophically once its largest term exceeds
~1e3 times the result (e.g. l = k = 30 at g = 2 loses ~7 digits even with
exact-integer term generation); the test suite keeps it as a cross-check.

Entries are computed by one vectorized recurrence over a set of pairs
(l, k), l >= k, ordered by k; the Laguerre degree of a pair is k and its
order l - k, so step i of the recurrence applies exactly to the contiguous
suffix of pairs with k > i.  Each step performs the scalar recurrence's IEEE
operations in the same order, and the logarithms of the rare
renormalizations and the final logarithms and exponentials go through
:mod:`math` entry by entry, so every entry is bit-identical to evaluating the
closed form on its own (the test suite keeps that scalar form as its oracle).

B_{l,k}(g) does not depend on the truncation, so one table is kept per
displacement g and grown: a request for a larger n_tr runs the recurrence
over the new rows l > the kept size only, and a smaller n_tr reads the
leading block.  A grown table is therefore bit-identical to one built at its
full size.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["OverlapKernel", "overlap_kernel"]

# Renormalization bounds for the scale-carrying Laguerre recurrence.
_RESCALE_HI = 1e250
_RESCALE_LO = 1e-250


@dataclass(frozen=True)
class OverlapKernel:
    """Immutable (n_tr+1) x (n_tr+1) alternating table B of displaced-Fock
    overlaps (dress it with :meth:`signed`).  ``peaks[d]`` is
    max |table[l, l - d]| over the table, d = 0..n_tr.
    """

    delta: float
    table: np.ndarray = field(repr=False)
    peaks: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.table.setflags(write=False)

    @property
    def n_tr(self) -> int:
        return self.table.shape[0] - 1

    def signed(self, direction: str) -> np.ndarray:
        """Sign-dressed copy of the table.

        "up"   -> (-1)^k B[l, k]   (coupling to the next sector up)
        "down" -> (-1)^l B[l, k]   (coupling to the next sector down)
        """
        size = self.table.shape[0]
        signs = np.where(np.arange(size) % 2, -1.0, 1.0)
        if direction == "up":
            return self.table * signs[np.newaxis, :]
        if direction == "down":
            return self.table * signs[:, np.newaxis]
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")


def _math_map(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` from :mod:`math` applied element by element, without a list.

    NumPy's own log and exp may round differently from :mod:`math` in the
    last bit; the scalar form of the recurrence uses :mod:`math`.
    """
    return np.fromiter(map(fn, values), float, count=len(values))


def _displaced_lower(g: float, k: np.ndarray, l: np.ndarray) -> np.ndarray:
    """<l| D(g) |k> for g > 0 over pairs l >= k listed in ascending k."""
    x = g * g
    a = (l - k).astype(float)
    # degree-0 pairs hold L_0 = 1; the others start from (L_0, L_1) = (1, 1 + a - x)
    prev = np.ones(len(k))
    cur = np.where(k > 0, 1.0 + a - x, 1.0)
    log_scale = np.zeros(len(k))
    for i in range(1, int(k[-1])):
        s = int(np.searchsorted(k, i, side="right"))  # first pair with k > i
        p, c, aa = prev[s:], cur[s:], a[s:]
        nxt = ((2 * i + 1 + aa - x) * c - (i + aa) * p) / (i + 1)
        prev[s:] = c
        cur[s:] = nxt
        mag = np.maximum(np.abs(prev[s:]), np.abs(cur[s:]))
        if mag.max() > _RESCALE_HI or mag.min() < _RESCALE_LO:
            hit = np.flatnonzero((mag > _RESCALE_HI) | ((mag > 0.0) & (mag < _RESCALE_LO)))
            m = mag[hit]
            hit += s
            prev[hit] /= m
            cur[hit] /= m
            log_scale[hit] += _math_map(math.log, m)

    lgam = np.array([math.lgamma(n + 1) for n in range(int(l.max()) + 1)])
    log_pref = 0.5 * (lgam[k] - lgam[l]) + a * math.log(g) - 0.5 * x
    nz = np.flatnonzero(cur)
    mant = cur[nz]
    log_total = log_pref[nz] + log_scale[nz] + _math_map(math.log, np.abs(mant))
    keep = log_total >= -745.0  # below that the true overlap underflows
    out = np.zeros(len(k))
    out[nz[keep]] = np.where(mant[keep] < 0.0, -1.0, 1.0) * _math_map(
        math.exp, log_total[keep])
    return out


# One table per displacement, grown on demand; least recently used first.
_GROWN: dict = {}
_GROWN_MAX = 128


def _grown_table(g: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading size x size block of the table kept for ``g``, and its
    per-diagonal maxima: max |B[l, l - d]| over l < size, d = 0..size-1.

    A larger request computes only the rows (and, by symmetry, columns)
    l >= the kept size; every entry is evaluated on its own, so the grown
    table equals one built at its full size bit for bit, and so do its maxima.
    """
    table, peaks = _GROWN.pop(g, (np.empty((0, 0)), np.empty((0, 0))))
    old = table.shape[0]
    if old < size:
        grown = np.empty((size, size))
        grown[:old, :old] = table
        n = np.arange(size)
        # the new pairs l >= k, l >= old, in ascending k
        k, l = np.nonzero((n[:, np.newaxis] <= n) & (n >= old))
        ksign = np.where(k % 2, -1.0, 1.0)
        vals = ksign * ((l == k) if g == 0.0 else _displaced_lower(g, k, l))
        grown[l, k] = vals
        grown[k, l] = vals
        peaks, kept = np.zeros((size, size)), peaks
        peaks[:old, :old] = kept
        peaks[l, l - k] = np.abs(vals)  # then peaks[r, d] = max |B[l, l - d]| over l <= r
        np.maximum.accumulate(peaks[max(old - 1, 0):], out=peaks[max(old - 1, 0):])
        grown.setflags(write=False)
        peaks.setflags(write=False)
        table = grown
    _GROWN[g] = table, peaks
    if len(_GROWN) > _GROWN_MAX:
        del _GROWN[next(iter(_GROWN))]
    return table[:size, :size], peaks[size - 1, :size]


def overlap_kernel(g: float, n_tr: int) -> OverlapKernel:
    """Alternating overlap table B_{l,k}(g) for l, k = 0..n_tr, read from the
    table kept for ``g``.

    B_{l,k} = (-1)^k <l|D(g)|k> = the symmetric table in the module docstring.
    """
    if g < 0.0:
        raise ValueError(f"kernel argument must be >= 0, got {g}")
    if n_tr < 0:
        raise ValueError(f"n_tr must be >= 0, got {n_tr}")
    g = float(g)
    table, peaks = _grown_table(g, int(n_tr) + 1)
    return OverlapKernel(delta=g, table=table, peaks=peaks)
