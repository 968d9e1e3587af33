"""Lowest eigenpair by certified shift-invert on the banded matrix.

Both bases are block-tridiagonal over the spin sectors, also after the parity
projection, so every parity sector hands over its matrix in LAPACK lower band
storage (``band()``).  A shift sigma counts as lying below the spectrum only
when the Cholesky factorization of H - sigma*I succeeds: by Sylvester's law
of inertia no eigenvalue then lies at or below sigma (Parlett, *The
Symmetric Eigenvalue Problem*).  The shift starts strictly below the
Gershgorin bound and rises by bisection and by Rayleigh estimates
theta - r; inverse iteration with the latest factor converges to the lowest
eigenvector, the one nearest a shift below the spectrum (Ericsson & Ruhe,
Math. Comp. 35 (1980)).  That holds for a fixed shift too, so a step keeps
the previous step's factor when that step's contraction predicts the target
is reached, r_new**2 <= target * r_old; ``factorizations`` may then be below
``iterations``, and such steps count against MAX_FACTORIZATIONS.  Once the
residual r is at most target = tol*max(1, |theta|), one more factorization
proves the returned energy the lowest; if it fails, ConvergenceError.  There
is one band-sized array: each factorization overwrites it, and the next one
first rewrites it from the operator.  The displaced basis hands over
a band H~ = H - E trimmed to K + w rows and a bound ``dropped`` >= ||E||_2;
by Weyl's inequality no eigenvalue moves further, so it joins the slack and
every shift test still speaks of H.  H commutes with parity (Emary & Brandes,
PRE 67, 066203 (2003)), so an unprojected matrix is solved as its two sectors.

With no warm start, a sector solve begins at its mean-field state: the lowest
state of the displaced n_tr = 0 problem of the same sector, whose band has
two rows, so LAPACK ``dstebz``/``dstein`` solve it as a tridiagonal matrix
in O(N).  It gives one amplitude per spin sector, on the k = 0 state of the
displaced basis, or on the coherent state <k|D(-g_n)|0> of the bare basis.
A perturbation of 1e-3/sqrt(dim) per entry from a splitmix64 stream of the
seed keeps inverse iteration off an excited eigenvector (at lambda = 0 the
k = 0 state of the odd sector is one).  The start proves nothing; the shift
tests certify every returned pair as before.

The factorization and the solves are LAPACK ``dpbtrf``/``dpbtrs`` through
scipy's own f2py extension, the one ``scipy.linalg.cholesky_banded`` and
``cho_solve_banded`` call, loaded by file so that a solve never imports the
``scipy.linalg`` package: its import chain (numpy.f2py, numpy.testing, ...)
costs several times the whole solve of a cold N = 1024 run.  This is the one
solver path; dense diagonalization lives only in the test oracles.
"""

import math
import sys
from dataclasses import dataclass, field, replace
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from pathlib import Path

import numpy as np

from .errors import ConfigError, ConvergenceError
from .hamiltonian import BlockHamiltonian, assemble_dcs, gershgorin, project_parity

__all__ = ["GroundState", "ground_state"]

MAX_FACTORIZATIONS = 200


def _load_flapack():
    """scipy's ``scipy.linalg._flapack`` extension, without its package."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    folder = Path(find_spec("scipy").origin).parent / "linalg"  # imports nothing
    for suffix in EXTENSION_SUFFIXES:
        path = folder / f"_flapack{suffix}"
        if path.is_file():
            break
    else:
        raise ImportError(f"no LAPACK extension _flapack in {folder}")
    spec = spec_from_file_location(name, path, loader=ExtensionFileLoader(name, str(path)))
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    # a later ``import scipy.linalg`` then wraps this same module
    sys.modules[name] = module
    return module


_flapack = _load_flapack()
_dpbtrf, _dpbtrs = _flapack.dpbtrf, _flapack.dpbtrs
_dstebz, _dstein = _flapack.dstebz, _flapack.dstein

# splitmix64 (Steele, Lea & Flood, OOPSLA 2014): the golden-ratio increment
# and the two multipliers of its finalizer
_SPLITMIX = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


@dataclass
class GroundState:
    """A converged eigenpair with enough metadata to reproduce and audit it.

    ``vector`` always lives in the full (unprojected) flat basis: the solve
    happens inside a parity sector, named by ``sector``, and is expanded
    before being stored here.  ``iterations`` counts inverse-iteration steps
    and ``factorizations`` the Cholesky factorizations, fewer when steps
    reuse a factor.  The lowest eigenvalue of the matrix that was passed in
    is proven to lie in [``lower_bound``, ``energy``]; ``bandwidth`` is the
    lower bandwidth of the widest band that was factored.  For an unprojected
    matrix the counts sum both sector solves, and ``sectors`` holds the even
    and odd states the lower was taken from.
    """

    energy: float
    vector: np.ndarray = field(repr=False)
    basis: str
    n_tr: int
    sector: str
    residual: float
    iterations: int
    method: str
    n_atoms: int
    factorizations: int
    lower_bound: float
    bandwidth: int
    sectors: tuple = field(default=(), repr=False)

    @property
    def table(self) -> np.ndarray:
        """Coefficients as an (N+1, n_tr+1) sector-major table."""
        return self.vector.reshape(self.n_atoms + 1, self.n_tr + 1)


def _canonical_sign(vec: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(vec)))
    return -vec if vec[i] < 0 else vec


class ShiftTest:
    """Positive-definiteness tests of H - sigma*I on the one band of the
    parity sector ``h``.

    The first test factors the freshly built band; each later one rewrites
    that same array from ``h`` first, so no second band-sized array exists.
    The Gershgorin bounds, the diagonal minimum and ``bandwidth`` come from
    the first build.  ``slack`` bounds the factorization's backward error
    (|F| <= (u+1)*eps*|L||L^T|, 2u+1 entries a row, diagonal below the
    Gershgorin spread) plus ``h.dropped``, and each test factors at
    sigma + slack: a success proves sigma <= E0, so a shift at or above E0 is
    refused; a failure proves E0 < sigma + 2*slack.
    """

    def __init__(self, h):
        self.h = h
        self.ab = h.band()
        self.bandwidth = u = self.ab.shape[0] - 1
        self.diag_min = float(self.ab[0].min())
        self.lowest, highest = gershgorin(self.ab)
        self.slack = (2 * u + 1) * (u + 1) * np.finfo(float).eps * max(
            highest - self.lowest, 1.0) + h.dropped
        self.count = 0

    def below_spectrum(self, sigma: float) -> bool:
        """True proves sigma <= E0; the band then holds the factor."""
        if self.count:
            self.h.band(out=self.ab)
        self.count += 1
        self.ab[0] -= sigma + self.slack
        self.ab, info = _dpbtrf(self.ab, lower=1, overwrite_ab=1)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpbtrf")
        # info > 0: a leading minor is not positive definite
        return info == 0

    def step(self, x: np.ndarray):
        """One inverse-iteration step with the current factor: (x, theta, r)."""
        x, info = _dpbtrs(self.ab, x, lower=1)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpbtrs")
        x /= np.linalg.norm(x)
        return (x, *_rayleigh(self.h, x))


def _rayleigh(h, x: np.ndarray) -> tuple[float, float]:
    hx = h.matvec(x)
    theta = float(x @ hx)
    return theta, float(np.linalg.norm(hx - theta * x))


@lru_cache(maxsize=2)
def _mean_field(params, sector: str) -> np.ndarray:
    """Lowest state of the displaced n_tr = 0 parity sector, one amplitude per
    spin sector (read-only; the last two are kept, so the cells of one
    coupling share them): its band has two rows, a tridiagonal matrix for
    dstebz and dstein."""
    h0 = project_parity(assemble_dcs(params, 0, max_dim=params.n_atoms + 1), sector)
    ab = h0.band()
    d, e = ab[0], ab[1, :max(h0.dim - 1, 1)]  # f2py wants one e entry at dim 1
    # range 2: by index, the lowest only (il = iu = 1); order "B", as dstein needs
    m, w, iblock, isplit, info = _dstebz(d, e, 2, 0.0, 0.0, 1, 1, 0.0, "B")
    if info == 0:
        z, info = _dstein(d, e, w[:m], iblock, isplit)
    if info:
        raise ValueError(f"dstebz/dstein failed with info {info}")
    c = h0.expand(z[:, 0])
    c.setflags(write=False)
    return c


def _coherent(g: np.ndarray, size: int) -> np.ndarray:
    """<k|D(-g)|0> = exp(-g^2/2) (-g)^k / sqrt(k!) for k < size, one row per
    displacement, from logarithms: exactly [1, 0, ...] at g = 0, and an
    underflow to 0 rather than an overflow at large g and k."""
    k = np.arange(size)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(k[1:]))))
    log_g = np.log(np.where(g == 0.0, 1.0, np.abs(g)))[:, np.newaxis]
    out = np.exp(k * log_g - 0.5 * (g * g)[:, np.newaxis] - 0.5 * log_fact)
    out[:, 1::2] *= -np.sign(g)[:, np.newaxis]
    out[g == 0.0, 1:] = 0.0
    return out


def _noise(seed: int, size: int) -> np.ndarray:
    """``size`` numbers in [-1, 1): a splitmix64 stream (uint64 arrays wrap
    silently) from a state that hashes every 64-bit word of ``seed``."""
    step, mul1, mul2 = _SPLITMIX

    def mix(z):
        for shift, mul in ((30, mul1), (27, mul2)):
            z ^= z >> shift
            z *= mul
        z ^= z >> 31
        return z

    state = np.zeros(1, dtype=np.uint64)
    for shift in range(0, max(seed.bit_length(), 1), 64):
        state = mix((state ^ (seed >> shift) % 2**64) + step)
    z = mix(np.arange(1, size + 1, dtype=np.uint64) * step + state)
    return (z >> 11).view(np.int64) * 2.0 ** -52 - 1.0


def _cold_start(h, seed: int) -> np.ndarray:
    """The sector's mean-field state on its own basis, plus a seeded
    perturbation of 1e-3/sqrt(dim) per entry.

    The displaced n_tr = 0 state puts c_n on each spin sector's k = 0 state;
    in the bare basis that is the coherent state c_n <k|D(-g_n)|0>.  The
    perturbation keeps inverse iteration off an excited state that the
    mean-field state happens to be (as at lambda = 0)."""
    p = h.params
    g = p.big_g * p.sector_values() if h.basis == "dfs" else np.zeros(p.n_atoms + 1)
    table = _mean_field(p, h.sector)[:, np.newaxis] * _coherent(g, h.n_tr + 1)
    return h.restrict(table.reshape(-1)) + 1e-3 / math.sqrt(h.dim) * _noise(seed, h.dim)


def _certified_lowest(h, tol: float, seed: int, v0: np.ndarray | None):
    """Returns (x, theta, residual, lower_bound, steps, test); ``test`` holds
    the factorization count and the bandwidth."""
    test = ShiftTest(h)
    if v0 is None or not np.any(v0):
        v0 = _cold_start(h, seed)
    x = np.array(v0, dtype=float) / np.linalg.norm(v0)
    theta, r = _rayleigh(h, x)
    # proven: lo <= E0 (strictly below the Gershgorin bound) and E0 <= hi
    lo = test.lowest - 2.0 * test.slack
    hi = min(theta, test.diag_min)
    steps = reused = 0
    keep = False
    while test.count + reused < MAX_FACTORIZATIONS:
        target = tol * max(1.0, abs(theta))
        sigma = theta - r - target - 2.0 * test.slack
        if r <= target:
            if not test.below_spectrum(sigma):
                raise ConvergenceError(
                    f"eigenvalue {theta:.12g} (residual {r:.3e}) is not the lowest: "
                    f"the spectrum reaches below {sigma:.12g}", residual=r)
            # the certified shift is the closest yet: one more cheap step
            return (*test.step(x), sigma, steps + 1, test)
        if keep:
            reused += 1
        else:
            # raise the shift to the Rayleigh estimate or else the midpoint of
            # [lo, hi], whichever is first proven below E0; else refactor at lo
            for trial in (sigma, 0.5 * (lo + hi)):
                if trial > lo:
                    if test.below_spectrum(trial):
                        lo = trial
                        break
                    hi = min(hi, trial + 2.0 * test.slack)
            else:
                if not test.below_spectrum(lo):
                    raise ConvergenceError(f"the proven shift {lo:.12g} failed to factor",
                                           residual=r)
        r_old = r
        x, theta, r = test.step(x)
        steps += 1
        hi = min(hi, theta)
        # if this step's contraction carries the next one to the target, the
        # next step keeps the factor rather than pay for a closer shift
        keep = r * r <= target * r_old
    raise ConvergenceError(
        f"shift-invert did not converge in {test.count} factorizations and {reused} "
        f"reused steps (residual {r:.3e}, target {tol * max(1.0, abs(theta)):.3e})",
        residual=r)


def ground_state(h, tol: float = 1e-10, seed: int = 0,
                 v0: np.ndarray | None = None) -> GroundState:
    """Lowest eigenpair of a parity sector, or of an unprojected matrix: the
    lower of its two sectors' states, with the lower of their bounds (so it
    holds also for a near-degenerate doublet).

    Certified: the energy is a Rayleigh quotient and ``lower_bound``, at most
    r + tol*max(1, |E|) (plus rounding slack) below it, is proven to lie
    below the spectrum.  Raises ConvergenceError (residual attached) rather
    than return an uncertified pair.  A sector starts from the sum of the
    restrictions of ``v0``, one or a list of full flat vectors (so from its
    own state, given one state per sector), or from its mean-field state if
    none reaches it; the seed, any non-negative int, picks that start's
    perturbation.
    """
    if not 0.0 < tol < np.inf:
        raise ConfigError(f"tol must be positive and finite, got {tol!r}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed!r}")
    seed = int(seed)
    if not isinstance(h, BlockHamiltonian):
        return _sector_ground_state(h, tol, seed, v0)
    even, odd = (_sector_ground_state(project_parity(h, sector), tol, seed, v0)
                 for sector in ("even", "odd"))
    return replace(
        min(even, odd, key=lambda gs: gs.energy),
        iterations=even.iterations + odd.iterations,
        factorizations=even.factorizations + odd.factorizations,
        lower_bound=min(even.lower_bound, odd.lower_bound),
        bandwidth=max(even.bandwidth, odd.bandwidth),
        sectors=(even, odd),
    )


def _sector_ground_state(h, tol, seed, v0) -> GroundState:
    x0 = None if v0 is None else sum(h.restrict(v) for v in np.atleast_2d(v0))
    vec, energy, resid, bound, steps, test = _certified_lowest(h, tol, seed, x0)
    return GroundState(
        energy=float(energy),
        vector=_canonical_sign(h.expand(vec)),
        basis=h.basis,
        n_tr=h.n_tr,
        sector=h.sector,
        residual=resid,
        iterations=steps,
        method="shift-invert",
        n_atoms=h.params.n_atoms,
        factorizations=test.count,
        lower_bound=bound,
        bandwidth=test.bandwidth,
    )
