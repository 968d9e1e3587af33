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

A table is built by one vectorized recurrence over its whole lower triangle.
The pairs (l, k), l >= k, are ordered by k; the Laguerre degree of a pair is
k and its order l - k, so step i of the recurrence applies exactly to the
contiguous suffix of pairs with k > i.  Each step performs the scalar
recurrence's IEEE operations in the same order, and the logarithms of the
rare renormalizations and the final logarithms and exponentials go through
:mod:`math` entry by entry, so every table is bit-identical to evaluating the
closed form one entry at a time (the test suite keeps that scalar form as its
oracle).
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = ["OverlapKernel", "overlap_kernel"]

# Renormalization bounds for the scale-carrying Laguerre recurrence.
_RESCALE_HI = 1e250
_RESCALE_LO = 1e-250


@dataclass(frozen=True)
class OverlapKernel:
    """Immutable (n_tr+1) x (n_tr+1) table of displaced-Fock overlaps.

    ``kind`` is "alternating" for the symmetric B table (dress externally) or
    "displacement" for the signed physical table <l|D(delta)|k>.
    """

    delta: float
    table: np.ndarray = field(repr=False)
    kind: str = "alternating"

    def __post_init__(self):
        self.table.setflags(write=False)

    @property
    def n_tr(self) -> int:
        return self.table.shape[0] - 1

    def signed(self, direction: str) -> np.ndarray:
        """Sign-dressed copy of an alternating table.

        "up"   -> (-1)^k B[l, k]   (coupling to the next sector up)
        "down" -> (-1)^l B[l, k]   (coupling to the next sector down)
        """
        if self.kind != "alternating":
            raise ValueError("sign dressing applies to alternating tables only")
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


def _displaced_lower(g: float, k: np.ndarray, l: np.ndarray, size: int) -> np.ndarray:
    """<l| D(g) |k> for g > 0 over the pairs l >= k of a size x size table,
    listed in ascending k."""
    x = g * g
    a = (l - k).astype(float)
    # degree-0 pairs hold L_0 = 1; the others start from (L_0, L_1) = (1, 1 + a - x)
    prev = np.ones(len(k))
    cur = np.where(k > 0, 1.0 + a - x, 1.0)
    log_scale = np.zeros(len(k))
    for i in range(1, size - 1):
        s = (i + 1) * size - i * (i + 1) // 2  # first pair with k > i
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

    lgam = np.array([math.lgamma(n + 1) for n in range(size)])
    log_pref = 0.5 * (lgam[k] - lgam[l]) + a * math.log(g) - 0.5 * x
    nz = np.flatnonzero(cur)
    mant = cur[nz]
    log_total = log_pref[nz] + log_scale[nz] + _math_map(math.log, np.abs(mant))
    keep = log_total >= -745.0  # below that the true overlap underflows
    out = np.zeros(len(k))
    out[nz[keep]] = np.where(mant[keep] < 0.0, -1.0, 1.0) * _math_map(
        math.exp, log_total[keep])
    return out


@lru_cache(maxsize=128)
def _overlap_kernel_cached(g: float, n_tr: int) -> OverlapKernel:
    size = n_tr + 1
    n = np.arange(size)
    k, l = np.nonzero(n[:, np.newaxis] <= n)  # pairs l >= k in ascending k
    ksign = np.where(k % 2, -1.0, 1.0)
    if g == 0.0:
        vals = ksign * (l == k)
    else:
        vals = ksign * _displaced_lower(g, k, l, size)
    table = np.empty((size, size))
    table[l, k] = vals
    table[k, l] = vals
    return OverlapKernel(delta=g, table=table, kind="alternating")


def overlap_kernel(g: float, n_tr: int) -> OverlapKernel:
    """Alternating overlap table B_{l,k}(g) for l, k = 0..n_tr (cached).

    B_{l,k} = (-1)^k <l|D(g)|k> = the symmetric table in the module docstring.
    """
    if g < 0.0:
        raise ValueError(f"kernel argument must be >= 0, got {g}")
    if n_tr < 0:
        raise ValueError(f"n_tr must be >= 0, got {n_tr}")
    return _overlap_kernel_cached(float(g), int(n_tr))
