"""Lowest eigenpair by certified shift-invert on the banded matrix.

Both bases are block-tridiagonal over the spin sectors, also after the parity
projection, so every operator hands over its matrix in LAPACK lower band
storage (``band()``).  A shift sigma counts as lying below the spectrum only
when the Cholesky factorization of H - sigma*I succeeds: by Sylvester's law
of inertia no eigenvalue then lies at or below sigma (Parlett, *The
Symmetric Eigenvalue Problem*).  The shift starts strictly below the
Gershgorin bound and rises by bisection and by Rayleigh estimates
theta - r; inverse iteration with the latest factor converges to the lowest
eigenvector, the one nearest a shift below the spectrum (Ericsson & Ruhe,
Math. Comp. 35 (1980)).  Once the residual r is at most tol*max(1, |theta|),
one more factorization proves the returned energy the lowest; if it fails,
ConvergenceError.  Only the band and one factor are alive at a time.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded, eigh

from .errors import ConvergenceError
from .hamiltonian import gershgorin

__all__ = ["GroundState", "ground_state"]

MAX_FACTORIZATIONS = 200


@dataclass
class GroundState:
    """A converged eigenpair with enough metadata to reproduce and audit it.

    ``vector`` always lives in the full (unprojected) flat basis; solves done
    inside a parity sector are expanded before being stored here, and
    ``sector`` records where the solve happened.  ``iterations`` counts
    inverse-iteration steps.  The sector's lowest eigenvalue is proven to lie
    in [``lower_bound``, ``energy``]; ``bandwidth`` is the lower bandwidth of
    the band that was factored.  The dense oracle has neither.
    """

    energy: float
    vector: np.ndarray = field(repr=False)
    basis: str
    n_tr: int | None
    sector: str
    residual: float
    iterations: int
    method: str
    n_atoms: int | None = None
    factorizations: int = 0
    lower_bound: float | None = None
    bandwidth: int | None = None

    @property
    def table(self) -> np.ndarray:
        """Coefficients as an (N+1, n_tr+1) sector-major table."""
        if self.n_atoms is None or self.n_tr is None:
            raise ValueError("no sector structure attached to this state")
        return self.vector.reshape(self.n_atoms + 1, self.n_tr + 1)


def _canonical_sign(vec: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(vec)))
    return -vec if vec[i] < 0 else vec


class ShiftTest:
    """Positive-definiteness tests of H - sigma*I on one reused work array.

    ``slack`` bounds the factorization's backward error (|E| <= (u+1)*eps*
    |L||L^T|, 2u+1 entries a row, diagonal below the Gershgorin spread), and
    each test factors at sigma + slack: a success proves sigma <= E0, so a
    shift at or above E0 is refused; a failure proves E0 < sigma + 2*slack.
    """

    def __init__(self, ab: np.ndarray):
        self.ab = ab
        self.work = np.empty_like(ab, order="F")
        u = ab.shape[0] - 1
        self.lowest, highest = gershgorin(ab)
        self.slack = (2 * u + 1) * (u + 1) * np.finfo(float).eps * max(
            highest - self.lowest, 1.0)
        self.count = 0

    def below_spectrum(self, sigma: float) -> bool:
        """True proves sigma <= E0; the work array then holds the factor."""
        self.count += 1
        self.work[...] = self.ab
        self.work[0] -= sigma + self.slack
        try:
            cholesky_banded(self.work, overwrite_ab=True, lower=True, check_finite=False)
        except LinAlgError:
            return False
        return True

    def step(self, h, x: np.ndarray):
        """One inverse-iteration step with the current factor: (x, theta, r)."""
        x = cho_solve_banded((self.work, True), x, check_finite=False)
        x /= np.linalg.norm(x)
        return (x, *_rayleigh(h, x))


def _rayleigh(h, x: np.ndarray) -> tuple[float, float]:
    hx = h.matvec(x)
    theta = float(x @ hx)
    return theta, float(np.linalg.norm(hx - theta * x))


def _certified_lowest(h, tol: float, seed: int, v0: np.ndarray | None):
    """Returns (x, theta, residual, lower_bound, steps, test); ``test`` holds
    the factorization count and the band."""
    test = ShiftTest(h.band())
    if v0 is None or not np.any(v0):
        v0 = np.random.default_rng(seed).standard_normal(h.dim)
    x = np.array(v0, dtype=float) / np.linalg.norm(v0)
    theta, r = _rayleigh(h, x)
    # proven: lo <= E0 (strictly below the Gershgorin bound) and E0 <= hi
    lo = test.lowest - 2.0 * test.slack
    hi = min(theta, float(test.ab[0].min()))
    steps = 0
    while test.count < MAX_FACTORIZATIONS:
        target = tol * max(1.0, abs(theta))
        sigma = theta - r - target - 2.0 * test.slack
        if r <= target:
            if not test.below_spectrum(sigma):
                raise ConvergenceError(
                    f"eigenvalue {theta:.12g} (residual {r:.3e}) is not the lowest: "
                    f"the spectrum reaches below {sigma:.12g}", residual=r)
            # the certified shift is the closest yet: one more cheap step
            return (*test.step(h, x), sigma, steps + 1, test)
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
        x, theta, r = test.step(h, x)
        steps += 1
        hi = min(hi, theta)
    raise ConvergenceError(
        f"shift-invert did not converge in {test.count} factorizations "
        f"(residual {r:.3e}, target {tol * max(1.0, abs(theta)):.3e})", residual=r)


def ground_state(h, tol: float = 1e-10, seed: int = 0, dense: bool = False,
                 v0: np.ndarray | None = None) -> GroundState:
    """Lowest eigenpair of an assembled (optionally projected) matrix.

    Certified: the energy is a Rayleigh quotient and ``lower_bound``, at most
    r + tol*max(1, |E|) (plus rounding slack) below it, is proven to lie
    below the spectrum.  Raises ConvergenceError (residual attached) rather
    than return an uncertified pair.  ``seed`` draws the start vector unless
    ``v0`` gives one; ``dense`` uses dense ``eigh`` instead (oracle path).
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if dense:
        vals, vecs = eigh(h.to_dense(), subset_by_index=(0, 0))
        energy, vec, steps, count, bound, width = vals[0], vecs[:, 0], 0, 0, None, None
        resid = float(np.linalg.norm(h.matvec(vec) - energy * vec))
    else:
        vec, energy, resid, bound, steps, test = _certified_lowest(h, tol, seed, v0)
        count, width = test.count, test.ab.shape[0] - 1
    full_vec = h.expand(vec) if hasattr(h, "expand") else vec
    return GroundState(
        energy=float(energy),
        vector=_canonical_sign(full_vec),
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
