"""Exact certificates for finite-dimensional Hopf algebras over Q and F_p."""

from .fields import GF, QQ, FieldSpec
from .hopf import (AlgebraData, AxiomReport, CoalgebraData, HopfData, SubspaceBasis,
                   augmentation_ideal, check_algebra, check_coalgebra, check_hopf,
                   dual_hopf, op_cop, unit_cokernel)
from .linalg import AffineSystem, SparseMat, invert, nullspace, rank, solve_affine
from .presets import (preset_function_algebra, preset_group_algebra, preset_sweedler,
                      preset_taft, resolve_preset)

__all__ = [
    "GF", "QQ", "FieldSpec",
    "AlgebraData", "AxiomReport", "CoalgebraData", "HopfData", "SubspaceBasis",
    "augmentation_ideal", "check_algebra", "check_coalgebra", "check_hopf",
    "dual_hopf", "op_cop", "unit_cokernel",
    "AffineSystem", "SparseMat", "invert", "nullspace", "rank", "solve_affine",
    "preset_function_algebra", "preset_group_algebra", "preset_sweedler",
    "preset_taft", "resolve_preset",
]
