"""Variational upper bounds for radial Schrodinger operators with singular
anharmonic potentials, with closed-form matrix elements in a two-parameter
solvable basis and an independent shooting-method check."""

from .basis import ModelParams
from .eigensolver import Spectrum, eigen_symmetric
from .hamiltonian import PotentialSpec, assemble
from .optimizer import (
    BoundResult,
    ConvergenceRun,
    converge_to_digits,
    ground_state_first_order,
    minimize_bound,
)
from .oracle import OracleResult, ShootingError, shoot_eigenvalue
from .tables import TableJob, TableReport, TableRow, builtin_job, run_table

__version__ = "0.1.0"

__all__ = [
    "ModelParams",
    "PotentialSpec",
    "Spectrum",
    "BoundResult",
    "ConvergenceRun",
    "OracleResult",
    "ShootingError",
    "TableJob",
    "TableReport",
    "TableRow",
    "assemble",
    "builtin_job",
    "converge_to_digits",
    "eigen_symmetric",
    "ground_state_first_order",
    "minimize_bound",
    "run_table",
    "shoot_eigenvalue",
    "__version__",
]
