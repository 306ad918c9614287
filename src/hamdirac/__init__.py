"""Hamilton-Dirac constraint analysis for degenerate Lagrangians.

Takes a (possibly second-order) point-particle Lagrangian through the full
constraint analysis, builds a canonical chart splitting constraint and
physical coordinates, selects an embedding of the physical block, and emits
the boundary conditions that make the variational principle well-posed.
"""

from .symbols import Symbol, SymbolTable
from .expr import Expr, ExprError
from .parser import ParseError, parse_expr
from .linalg import ExprMatrix, rank, solve_linear
from .lagrangian import (
    FirstOrderSystem,
    LagrangianSystem,
    PhaseSpace,
    UnsupportedShape,
    counter_term,
    legendre,
    ostrogradsky_reduce,
    pons_reduce,
)
from .dirac import (
    BudgetExceeded,
    Constraint,
    DiracResult,
    InconsistentTheory,
    classify,
    dirac_iterate,
    dof,
    poisson,
)
from .chart import (
    CanonicalChart,
    build_chart,
    frobenius_check,
    transform,
    verify_chart,
)
from .embedding import (
    BoundaryReport,
    EmbeddingPlan,
    GaugeError,
    boundary_report,
    effective_hamiltonian,
    pullback_total_lagrangian,
    select_embedding,
)
from .numerics import (
    ReducedField,
    ShootingNotConverged,
    SingularShooting,
    Trajectory,
    compile_field,
    integrate,
    solve_iota,
)
from .sysfile import SystemFile, load_system_file, parse_system_file
from .report import Analysis, PipelineOptions, build_report, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "BoundaryReport",
    "BudgetExceeded",
    "CanonicalChart",
    "Constraint",
    "DiracResult",
    "EmbeddingPlan",
    "Expr",
    "ExprError",
    "ExprMatrix",
    "FirstOrderSystem",
    "GaugeError",
    "InconsistentTheory",
    "LagrangianSystem",
    "ParseError",
    "PhaseSpace",
    "PipelineOptions",
    "ReducedField",
    "ShootingNotConverged",
    "SingularShooting",
    "Symbol",
    "SymbolTable",
    "SystemFile",
    "Trajectory",
    "UnsupportedShape",
    "boundary_report",
    "build_chart",
    "build_report",
    "classify",
    "compile_field",
    "counter_term",
    "dirac_iterate",
    "dof",
    "effective_hamiltonian",
    "frobenius_check",
    "integrate",
    "legendre",
    "load_system_file",
    "ostrogradsky_reduce",
    "parse_expr",
    "parse_system_file",
    "poisson",
    "pons_reduce",
    "pullback_total_lagrangian",
    "rank",
    "run_pipeline",
    "select_embedding",
    "solve_iota",
    "solve_linear",
    "transform",
    "verify_chart",
]
