"""Model parameters and angular-momentum bookkeeping for the Dicke model.

Conventions (used throughout the package, hbar = 1):

- N two-level atoms, collective spin j = N/2, one bosonic mode of
  frequency ``omega``, qubit splitting ``delta``, coupling ``lam``.
- All matrices live in the frame obtained by a pi/2 rotation of the spin
  about the y axis, where the boson couples to J_z and the qubit term is
  -delta * J_x.  The mapping back to lab-frame operators is fixed once in
  :mod:`dicke_ed.observables`.
- Per-sector boson displacement g_m = 2*lam*m / (omega*sqrt(N)) for
  m = -j..j, and the inter-sector step G = 2*lam / (omega*sqrt(N)).
- Dimensionless combinations D = delta/omega and alpha = 4*lam^2/(delta*omega);
  alpha = 1 marks the critical coupling.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "ModelParams",
    "critical_coupling",
    "params_from_mapping",
]


def critical_coupling(omega: float, delta: float) -> float:
    """Coupling at which the superradiant instability sets in: sqrt(omega*delta)/2."""
    if not (0.0 < omega < math.inf and 0.0 < delta < math.inf):
        raise ValueError(f"omega and delta must be positive and finite, got {omega}, {delta}")
    return 0.5 * math.sqrt(omega * delta)


@dataclass(frozen=True)
class ModelParams:
    """Physics configuration: atom number and the three energies.

    Derived quantities (j, alpha, G) are computed on access so they can never
    go stale; the displacement of sector m is g_m = G*m.
    """

    n_atoms: int
    omega: float = 1.0
    delta: float = 1.0
    lam: float = 0.0

    def __post_init__(self):
        if int(self.n_atoms) != self.n_atoms or self.n_atoms < 1:
            raise ValueError(f"n_atoms must be a positive integer, got {self.n_atoms}")
        if not 0.0 < self.omega < math.inf:
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        if not 0.0 < self.delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"lam must be non-negative and finite, got {self.lam}")

    @property
    def j(self) -> float:
        """Collective spin N/2 (half-integer when N is odd)."""
        return 0.5 * self.n_atoms

    @property
    def alpha(self) -> float:
        """alpha = 4*lam^2 / (delta*omega); equals 1 at the critical coupling."""
        return 4.0 * self.lam**2 / (self.delta * self.omega)

    @property
    def big_g(self) -> float:
        """Inter-sector displacement step G = 2*lam / (omega*sqrt(N))."""
        return 2.0 * self.lam / (self.omega * math.sqrt(self.n_atoms))

    def sector_values(self) -> np.ndarray:
        """J_z eigenvalues n = -j..j as a length N+1 array."""
        return np.arange(self.n_atoms + 1, dtype=float) - self.j

    def spin_ladder(self) -> np.ndarray:
        """Ladder coefficients j_n^+ = (1/2) sqrt(j(j+1) - n(n+1)), n = -j..j-1.

        Half the matrix element of J+ from |j, n> to |j, n+1>, which equals
        j_(n+1)^-; the length-N array couples each sector to the next.
        """
        j = self.j
        n = self.sector_values()[:-1]
        return 0.5 * np.sqrt(j * (j + 1.0) - n * (n + 1))


CONFIG_KEYS = {"n_atoms", "omega", "delta", "lambda", "alpha"}


def params_from_mapping(mapping: dict) -> ModelParams:
    """Build ModelParams from a flat key/value mapping.

    Accepted keys: n_atoms, omega, delta, and exactly one of lambda | alpha
    (alpha is converted via lam = sqrt(alpha*delta*omega)/2).  Raises
    ConfigError naming the offending key on any problem.
    """
    unknown = set(mapping) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    if "n_atoms" not in mapping:
        raise ConfigError("missing config key: n_atoms")

    def _num(key, cast=float):
        try:
            return cast(mapping[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key!r}: not a number ({mapping[key]!r})") from exc

    n_atoms = _num("n_atoms", int)
    omega = _num("omega") if "omega" in mapping else 1.0
    delta = _num("delta") if "delta" in mapping else 1.0

    if "lambda" in mapping and "alpha" in mapping:
        raise ConfigError("give either 'lambda' or 'alpha', not both")
    if "alpha" in mapping:
        alpha = _num("alpha")
        if not 0.0 <= alpha < math.inf:
            raise ConfigError(f"alpha must be non-negative and finite, got {alpha}")
        lam = 0.5 * math.sqrt(alpha * delta * omega)
    else:
        lam = _num("lambda") if "lambda" in mapping else 0.0

    try:
        return ModelParams(n_atoms=n_atoms, omega=omega, delta=delta, lam=lam)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
