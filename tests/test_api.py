"""The package's public surface: `__all__`, star import, and removed names."""

import inspect
from pathlib import Path

import groupoid_homology
import groupoid_homology.matrix
from groupoid_homology import moore_complex, one_object_cyclic

REMOVED = ("kernel_basis", "in_column_lattice", "same_column_lattice", "solve_columns",
           "column_lattice_basis", "homology_with_coefficients", "validate_groupoid",
           "face", "nerve", "NerveLevel", "pushforward_matrix", "SparseMatrix")
# the dense twin's bridges and arithmetic, deleted with it; the one matrix
# type stores sparse rows and multiplies with `matmul` alone
DENSE_ONLY = ("from_dense", "to_dense", "column_vector", "identity", "zeros", "transpose",
              "mod", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__str__")


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
    for attr in DENSE_ONLY:
        assert attr not in vars(groupoid_homology.IntegerMatrix)
    for attr in ("modulus", "basis_labels"):
        assert not hasattr(groupoid_homology.FreeChainComplex, attr)


def test_benchmark_tracer_wraps_the_matrix_product(monkeypatch):
    # perfbench/tracing.py wraps IntegerMatrix.__dict__["matmul"] as
    # `matrix.matmul`, so the class keeps that name and defines matmul itself;
    # the constructor's two ∂∘∂ products then show up as two traced calls
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import tracing

    tracer = tracing.Tracer("groupoid_homology")
    tracer.install()
    try:
        moore_complex(one_object_cyclic(4), 3)
    finally:
        tracer.uninstall()
    _, calls = tracer.self_times(0)
    assert calls["matrix.matmul"] == 2
