"""Physics quantities from a solved ground state, and the truncation driver.

Frame bookkeeping, fixed once here: matrices are assembled in the rotated
frame, where the qubit term is -delta*J_x and the boson couples to J_z.
Rotating back to the lab frame maps lab J_x -> rotated J_z, lab J_z ->
-(rotated J_x), and leaves J_y untouched.  Consequences used below:

- The polarization observable B_N := 1 - <J_x>_rot / j equals
  1 + <J_z>_lab / j.  It vanishes in the decoupled limit, tends to 1 at
  strong coupling, and at the critical coupling decays with system size --
  the quantity whose finite-size scaling is extracted in :mod:`.scaling`.
- The cyclic-evolution phase accumulated by the ground state under a slow
  2*pi twist of the spins about the polarization axis reduces to
  gamma = 2*pi*<J_x>_rot for the static ground state.
- The pairwise-entanglement measure (scaled concurrence) is
  C_N = 1 - 4<J_y^2>/N with <J_y^2> evaluated in the rotated frame via
  J_y^2 = [2(J^2 - J_z^2) - J_+^2 - J_-^2]/4, which needs only sector
  distances 0 and 2: no transformation of the eigenvector back to the bare
  Fock basis is ever required.

Expectation values across sectors n and n+-1 (n+-2) contract the coefficient
table with the sign-dressed overlap kernels at displacement step G (2G); in
the bare basis those kernels are the identity.

The truncation driver computes at each step only the observables it tracks;
:func:`observable_set` computes any of them from one ground state.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dcs_basis import overlap_kernel
from .eigen import GroundState, ground_state
from .errors import ConfigError, ConvergenceError
from .hamiltonian import assemble_dcs, project_parity
from .model import ModelParams

__all__ = [
    "ConvergedResult",
    "DEFAULT_SCHEDULE",
    "converge",
    "OBSERVABLES",
    "observable_set",
    "spin_expectations",
    "result_row",
    "CSV_COLUMNS",
]

DEFAULT_SCHEDULE = (4, 6, 8, 12, 16, 24, 32, 48, 64, 96)
OBSERVABLES = ("e0", "b_n", "gamma", "jy2", "c_n")


def _step_kernels(gs: GroundState, params: ModelParams, step: int):
    """Dressed (up, down) kernel matrices for sector distance ``step``."""
    if gs.basis == "dfs":
        eye = np.eye(gs.n_tr + 1)
        return eye, eye
    kern = overlap_kernel(step * params.big_g, gs.n_tr)
    return kern.signed("up"), kern.signed("down")


def spin_expectations(gs: GroundState, params: ModelParams) -> dict:
    """Collective-spin moments of a ground state (rotated frame).

    Returns jx, jz2, jp2, jm2, jpm, jy2, jx2 keyed by name; jx2+jy2+jz2
    should reproduce j(j+1) -- kept as a free consistency check.
    """
    C = gs.table
    n_vals = params.sector_values()
    j = params.j
    jp = params.spin_ladder()
    weights = np.sum(C * C, axis=1)

    jz2 = float(np.sum(n_vals**2 * weights))
    jpm = float(np.sum(2.0 * (j * (j + 1) - n_vals**2) * weights))

    k_up, _ = _step_kernels(gs, params, 1)
    jx = 2.0 * float(np.sum(jp * np.einsum("ik,kl,il->i", C[:-1], k_up, C[1:])))

    if C.shape[0] >= 3:
        k2_up, k2_down = _step_kernels(gs, params, 2)
        w2 = 4.0 * jp[:-1] * jp[1:]
        jp2 = float(np.sum(w2 * np.einsum("ik,kl,il->i", C[2:], k2_down, C[:-2])))
        jm2 = float(np.sum(w2 * np.einsum("ik,kl,il->i", C[:-2], k2_up, C[2:])))
    else:
        jp2 = jm2 = 0.0

    jy2 = (2.0 * (j * (j + 1) - jz2) - jp2 - jm2) / 4.0
    jx2 = (jp2 + jm2 + jpm) / 4.0
    return {
        "jx": jx,
        "jz2": jz2,
        "jp2": jp2,
        "jm2": jm2,
        "jpm": jpm,
        "jy2": jy2,
        "jx2": jx2,
    }


def observable_set(gs: GroundState, params: ModelParams, keys: tuple = OBSERVABLES) -> dict:
    """The observables ``keys`` of a ground state, in that order; the spin
    moments are computed only when a key other than "e0" is named."""
    values = {"e0": gs.energy}
    if set(keys) - {"e0"}:
        ex = spin_expectations(gs, params)
        values.update(
            b_n=1.0 - ex["jx"] / params.j,
            gamma=2.0 * math.pi * ex["jx"],
            jy2=ex["jy2"],
            c_n=1.0 - 4.0 * ex["jy2"] / params.n_atoms,
        )
    return {key: values[key] for key in keys}


@dataclass
class ConvergedResult:
    """The truncation loop's solves: ``history`` holds each step's
    GroundState in schedule order, and the last one was accepted.

    ``values`` holds every observable of ``ground``, computed on first read,
    so a caller that needs only the energy never pays for the spin moments.
    """

    params: ModelParams
    sector: str
    history: list = field(repr=False)

    @property
    def ground(self) -> GroundState:
        return self.history[-1]

    @property
    def n_tr_used(self) -> int:
        return self.ground.n_tr

    @cached_property
    def values(self) -> dict:
        return observable_set(self.ground, self.params)


def _padded(gs: GroundState, n_tr: int) -> np.ndarray:
    """``gs``'s vector zero-padded (or cut) to truncation ``n_tr``."""
    padded = np.zeros((gs.n_atoms + 1, n_tr + 1))
    padded[:, : gs.n_tr + 1] = gs.table[:, : n_tr + 1]
    return padded.reshape(-1)


def converge(
    params: ModelParams,
    threshold: float = 1e-6,
    schedule: tuple = DEFAULT_SCHEDULE,
    track: tuple = ("e0",),
    sector: str = "even",
    solver_tol: float = 1e-10,
    seed: int = 0,
    dense: bool = False,
    max_dim: int | None = None,
) -> ConvergedResult:
    """Solve at successive truncations until the tracked observables settle.

    Accepts once every tracked observable changes relatively by less than
    ``threshold`` between consecutive schedule entries; raises
    ConvergenceError (history attached) if the schedule runs out.  ``sector``
    picks the parity block the solve happens in; "full" solves both and keeps
    the lower (``ground.sector`` names it, while ``sector`` stays "full").
    Each step starts each sector from its own state of the step before.

    ``track`` defaults to the energy, the usual acceptance criterion for
    truncated diagonalization; pass the observable you are about to fit when
    its own tail matters (relative changes of scaled concurrence are
    ill-conditioned wherever it crosses zero, so track "jy2" there instead).
    A step computes only what ``track`` needs.
    """
    if not 0.0 < threshold < math.inf:
        raise ConfigError(f"threshold must be positive and finite, got {threshold!r}")
    if not track or not set(track) <= set(OBSERVABLES):
        raise ConfigError(
            f"track must name one or more of {', '.join(OBSERVABLES)}; got {list(track)}")
    history = []
    prev = None
    for n_tr in schedule:
        h = project_parity(assemble_dcs(params, n_tr, max_dim=max_dim), sector)
        # warm start: each sector's previous state, zero-padded to the new truncation
        v0 = [_padded(s, n_tr) for s in history[-1].sectors or history[-1:]] if history else None
        history.append(ground_state(h, tol=solver_tol, seed=seed, dense=dense, v0=v0))
        vals = observable_set(history[-1], params, track)
        if prev is not None and all(
                abs(vals[k] - prev[k]) / max(abs(vals[k]), 1e-12) < threshold for k in track):
            return ConvergedResult(params=params, sector=sector, history=history)
        prev = vals
    raise ConvergenceError(
        f"schedule exhausted at n_tr={schedule[-1]} without reaching {threshold:g} "
        f"(params: N={params.n_atoms}, lam={params.lam:g})",
        history=history,
    )


CSV_COLUMNS = (
    "N", "omega", "delta", "lambda", "alpha", "Ntr_used",
    "E0", "E0_scaled", "B_N", "berry_gamma", "Jy2", "C_N", "parity", "residual",
)


def result_row(res: ConvergedResult) -> dict:
    """Flatten a converged result into the CSV schema."""
    p = res.params
    return {
        "N": p.n_atoms,
        "omega": p.omega,
        "delta": p.delta,
        "lambda": p.lam,
        "alpha": p.alpha,
        "Ntr_used": res.n_tr_used,
        "E0": res.values["e0"],
        "E0_scaled": res.values["e0"] / (p.j * p.delta),
        "B_N": res.values["b_n"],
        "berry_gamma": res.values["gamma"],
        "Jy2": res.values["jy2"],
        "C_N": res.values["c_n"],
        "parity": res.sector,
        "residual": res.ground.residual,
    }
