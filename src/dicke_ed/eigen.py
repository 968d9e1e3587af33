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
proves the returned energy the lowest; if it fails, ConvergenceError.  Only
the band and one factor are alive at a time.  The displaced basis hands over
a band H~ = H - E trimmed to K + w rows and a bound ``dropped`` >= ||E||_2;
by Weyl's inequality no eigenvalue moves further, so it joins the slack and
every shift test still speaks of H.  H commutes with parity (Emary & Brandes,
PRE 67, 066203 (2003)), so an unprojected matrix is solved as its two sectors.

The factorization and the solves are LAPACK ``dpbtrf``/``dpbtrs`` through
scipy's own f2py extension, the one ``scipy.linalg.cholesky_banded`` and
``cho_solve_banded`` call, loaded by file so that a solve never imports the
``scipy.linalg`` package: its import chain (numpy.f2py, numpy.testing, ...)
costs several times the whole solve of a cold N = 1024 run.  Only the dense
oracle path imports ``scipy.linalg``, on demand.
"""

import sys
from dataclasses import dataclass, field, replace
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from pathlib import Path

import numpy as np
from numpy.random import default_rng  # at import: a solve imports nothing

from .errors import ConfigError, ConvergenceError
from .hamiltonian import BlockHamiltonian, gershgorin, project_parity

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


@dataclass
class GroundState:
    """A converged eigenpair with enough metadata to reproduce and audit it.

    ``vector`` always lives in the full (unprojected) flat basis: the solve
    happens inside a parity sector, named by ``sector``, and is expanded
    before being stored here.  ``iterations`` counts inverse-iteration steps
    and ``factorizations`` the Cholesky factorizations, fewer when steps
    reuse a factor.  The lowest eigenvalue of the matrix that was passed in
    is proven to lie in [``lower_bound``, ``energy``]; ``bandwidth`` is the
    lower bandwidth of the widest band that was factored.  The dense oracle
    has neither.  For an unprojected matrix the counts sum both sector solves,
    and ``sectors`` holds the even and odd states the lower was taken from.
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
    factorizations: int = 0
    lower_bound: float | None = None
    bandwidth: int | None = None
    sectors: tuple = field(default=(), repr=False)

    @property
    def table(self) -> np.ndarray:
        """Coefficients as an (N+1, n_tr+1) sector-major table."""
        return self.vector.reshape(self.n_atoms + 1, self.n_tr + 1)


def _canonical_sign(vec: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(vec)))
    return -vec if vec[i] < 0 else vec


class ShiftTest:
    """Positive-definiteness tests of H - sigma*I on one reused work array.

    ``slack`` bounds the factorization's backward error (|F| <= (u+1)*eps*
    |L||L^T|, 2u+1 entries a row, diagonal below the Gershgorin spread) plus
    ``dropped``, and each test factors at sigma + slack: a success proves
    sigma <= E0, so a shift at or above E0 is refused; a failure proves
    E0 < sigma + 2*slack.
    """

    def __init__(self, ab: np.ndarray, dropped: float = 0.0):
        self.ab = ab
        self.work = np.empty_like(ab, order="F")
        u = ab.shape[0] - 1
        self.lowest, highest = gershgorin(ab)
        self.slack = (2 * u + 1) * (u + 1) * np.finfo(float).eps * max(
            highest - self.lowest, 1.0) + dropped
        self.count = 0

    def below_spectrum(self, sigma: float) -> bool:
        """True proves sigma <= E0; the work array then holds the factor."""
        self.count += 1
        self.work[...] = self.ab
        self.work[0] -= sigma + self.slack
        self.work, info = _dpbtrf(self.work, lower=1, overwrite_ab=1)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpbtrf")
        # info > 0: a leading minor is not positive definite
        return info == 0

    def step(self, h, x: np.ndarray):
        """One inverse-iteration step with the current factor: (x, theta, r)."""
        x, info = _dpbtrs(self.work, x, lower=1)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpbtrs")
        x /= np.linalg.norm(x)
        return (x, *_rayleigh(h, x))


def _rayleigh(h, x: np.ndarray) -> tuple[float, float]:
    hx = h.matvec(x)
    theta = float(x @ hx)
    return theta, float(np.linalg.norm(hx - theta * x))


def _certified_lowest(h, tol: float, seed: int, v0: np.ndarray | None):
    """Returns (x, theta, residual, lower_bound, steps, test); ``test`` holds
    the factorization count and the band."""
    test = ShiftTest(h.band(), h.dropped)
    if v0 is None or not np.any(v0):
        v0 = default_rng(seed).standard_normal(h.dim)
    x = np.array(v0, dtype=float) / np.linalg.norm(v0)
    theta, r = _rayleigh(h, x)
    # proven: lo <= E0 (strictly below the Gershgorin bound) and E0 <= hi
    lo = test.lowest - 2.0 * test.slack
    hi = min(theta, float(test.ab[0].min()))
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
            return (*test.step(h, x), sigma, steps + 1, test)
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
        x, theta, r = test.step(h, x)
        steps += 1
        hi = min(hi, theta)
        # if this step's contraction carries the next one to the target, the
        # next step keeps the factor rather than pay for a closer shift
        keep = r * r <= target * r_old
    raise ConvergenceError(
        f"shift-invert did not converge in {test.count} factorizations and {reused} "
        f"reused steps (residual {r:.3e}, target {tol * max(1.0, abs(theta)):.3e})",
        residual=r)


def ground_state(h, tol: float = 1e-10, seed: int = 0, dense: bool = False,
                 v0: np.ndarray | None = None) -> GroundState:
    """Lowest eigenpair of a parity sector, or of an unprojected matrix: the
    lower of its two sectors' states, with the lower of their bounds (so it
    holds also for a near-degenerate doublet).

    Certified: the energy is a Rayleigh quotient and ``lower_bound``, at most
    r + tol*max(1, |E|) (plus rounding slack) below it, is proven to lie
    below the spectrum.  Raises ConvergenceError (residual attached) rather
    than return an uncertified pair.  ``seed`` draws the start vector unless
    ``v0``, one or a list of full flat vectors, gives one: a sector starts
    from the sum of their restrictions (so from its own state, given one state
    per sector), or from the seed if none reaches it.  ``dense`` uses dense
    ``eigh`` instead (oracle path).
    """
    if not 0.0 < tol < np.inf:
        raise ConfigError(f"tol must be positive and finite, got {tol!r}")
    if not isinstance(h, BlockHamiltonian):
        return _sector_ground_state(h, tol, seed, dense, v0)
    even, odd = (_sector_ground_state(project_parity(h, sector), tol, seed, dense, v0)
                 for sector in ("even", "odd"))
    return replace(
        min(even, odd, key=lambda gs: gs.energy),
        iterations=even.iterations + odd.iterations,
        factorizations=even.factorizations + odd.factorizations,
        lower_bound=None if dense else min(even.lower_bound, odd.lower_bound),
        bandwidth=None if dense else max(even.bandwidth, odd.bandwidth),
        sectors=(even, odd),
    )


def _sector_ground_state(h, tol, seed, dense, v0) -> GroundState:
    if dense:
        from scipy.linalg import eigh

        vals, vecs = eigh(h.to_dense(), subset_by_index=(0, 0))
        energy, vec, steps, count, bound, width = vals[0], vecs[:, 0], 0, 0, None, None
        resid = float(np.linalg.norm(h.matvec(vec) - energy * vec))
    else:
        x0 = None if v0 is None else sum(h.restrict(v) for v in np.atleast_2d(v0))
        vec, energy, resid, bound, steps, test = _certified_lowest(h, tol, seed, x0)
        count, width = test.count, test.ab.shape[0] - 1
    return GroundState(
        energy=float(energy),
        vector=_canonical_sign(h.expand(vec)),
        basis=h.basis,
        n_tr=h.n_tr,
        sector=h.sector,
        residual=resid,
        iterations=steps,
        method="dense" if dense else "shift-invert",
        n_atoms=h.params.n_atoms,
        factorizations=count,
        lower_bound=bound,
        bandwidth=width,
    )
