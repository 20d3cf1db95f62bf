"""The public surface, pinned: the package exports, the CLI subcommands and the
public attributes of the core classes.  A change to any of them edits this
snapshot in the same change that logs it in CHANGES.md."""

from dataclasses import fields

import hopfsmith
from hopfsmith import cli
from hopfsmith.hopf import AlgebraData, CoalgebraData, HopfData, SubspaceBasis
from hopfsmith.linalg import AffineSystem, SparseMat


def _public(cls) -> list:
    """Dataclass fields plus the public names defined on the class."""
    return sorted({f.name for f in fields(cls)} | {n for n in dir(cls) if not n.startswith("_")})


def test_package_exports():
    assert hopfsmith.__all__ == [
        "GF", "QQ", "FieldSpec",
        "AlgebraData", "AxiomReport", "CoalgebraData", "HopfData", "SubspaceBasis",
        "augmentation_ideal", "check_algebra", "check_coalgebra", "check_hopf",
        "dual_hopf", "op_cop", "unit_cokernel",
        "AffineSystem", "SparseMat", "invert", "nullspace", "rank", "solve_affine",
        "preset_function_algebra", "preset_group_algebra", "preset_sweedler",
        "preset_taft", "resolve_preset",
    ]
    assert all(hasattr(hopfsmith, name) for name in hopfsmith.__all__)


def test_cli_subcommands():
    assert cli.SUBCOMMANDS == [
        "check-axioms", "integrals", "ad-invariant", "ad-coinvariant",
        "separable", "coseparable", "fs-algebra", "fs-algebra-complete",
        "fs-coalgebra", "fs-coalgebra-complete", "double", "double-separable",
        "coradical", "wedge-filtration", "lift-section", "weak-projection",
        "truth-table",
    ]
    assert sorted(cli.HANDLERS) == sorted(cli.SUBCOMMANDS)


def test_class_attributes():
    assert {cls.__name__: _public(cls) for cls in (AlgebraData, CoalgebraData, HopfData,
                                                    SubspaceBasis, SparseMat, AffineSystem)} == {
        "AlgebraData": ["dim", "field", "mult", "unit"],
        "CoalgebraData": ["comult", "counit", "dim", "field"],
        "HopfData": ["alg", "antipode", "antipode_inverse", "basis", "coa", "dim", "field"],
        "SubspaceBasis": ["ambient_dim", "basis", "contains", "dim", "tensors"],
        "SparseMat": ["cols", "data", "field", "from_tensor", "rows"],
        "AffineSystem": ["condition_labels", "conditions", "labels", "matrix", "rhs", "shape",
                         "unknowns"],
    }
