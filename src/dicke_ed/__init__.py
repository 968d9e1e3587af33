"""Exact diagonalization of the finite-size Dicke model in a displaced-Fock
basis, with a bare-Fock baseline and finite-size scaling extraction."""

__version__ = "0.1.0"

from .model import ModelParams, critical_coupling
from .dcs_basis import OverlapKernel, overlap_kernel
from .hamiltonian import (
    BlockHamiltonian,
    ProjectedHamiltonian,
    assemble_dcs,
    assemble_dfs,
    project_parity,
)
from .eigen import GroundState, ground_state
from .observables import ConvergedResult, converge, spin_expectations
from .scaling import (
    ExponentFit,
    ScalingSeries,
    deviation_series,
    extrapolate_exponent,
)

__all__ = [
    "ModelParams", "critical_coupling",
    "OverlapKernel", "overlap_kernel",
    "BlockHamiltonian", "ProjectedHamiltonian",
    "assemble_dcs", "assemble_dfs", "project_parity",
    "GroundState", "ground_state",
    "ConvergedResult", "converge", "spin_expectations",
    "ExponentFit", "ScalingSeries", "deviation_series", "extrapolate_exponent",
]
