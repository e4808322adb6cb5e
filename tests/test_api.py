"""The package's public surface: `__all__`, star import, and removed names."""

import inspect

import groupoid_homology
import groupoid_homology.matrix

REMOVED = ("kernel_basis", "in_column_lattice", "same_column_lattice", "solve_columns",
           "column_lattice_basis", "homology_with_coefficients", "validate_groupoid",
           "face", "nerve", "NerveLevel", "pushforward_matrix")


def test_public_names_resolve_and_removed_helpers_are_gone():
    names = groupoid_homology.__all__
    assert len(set(names)) == len(names)
    for name in names:
        getattr(groupoid_homology, name)  # AttributeError if a listed name is missing
    namespace = {}
    exec("from groupoid_homology import *", namespace)
    assert set(names) <= set(namespace)
    for name in REMOVED:
        assert name not in names
        assert name not in namespace
        assert not hasattr(groupoid_homology, name)
        for module in (groupoid_homology.matrix, groupoid_homology.groupoids, groupoid_homology.uct):
            assert not hasattr(module, name)
    # chain complexes are over Z only: no Z/q complexes, no residue reduction, no labels
    assert "modulus" not in inspect.signature(groupoid_homology.moore_complex).parameters
    for cls in (groupoid_homology.IntegerMatrix, groupoid_homology.SparseMatrix):
        assert not hasattr(cls, "mod")
    for attr in ("modulus", "basis_labels"):
        assert not hasattr(groupoid_homology.FreeChainComplex, attr)
