"""The package's public surface: `__all__`, star import, and removed names."""

import inspect
from pathlib import Path

import groupoid_homology
import groupoid_homology.matrix
import groupoid_homology.mv
from groupoid_homology import ConnectingResult, HomologyResult, MvChainSes, moore_complex, one_object_cyclic

from test_cli import gen_file, run_cli

REMOVED = ("kernel_basis", "in_column_lattice", "same_column_lattice", "solve_columns",
           "column_lattice_basis", "homology_with_coefficients", "validate_groupoid",
           "face", "nerve", "NerveLevel", "pushforward_matrix", "SparseMatrix", "SmithDecomposition")
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
    # the Mayer–Vietoris maps act on chains through position lists: no α/β
    # matrices, no index table of their own, no cycle lifts or bounding chains
    for attr in ("intersection_to_piece1", "cycle_lift", "_build_degree"):
        assert not hasattr(MvChainSes, attr)
    assert inspect.isfunction(MvChainSes.to_pieces) and inspect.isfunction(MvChainSes.to_total)
    assert not hasattr(ConnectingResult, "is_zero_class")
    for attr in ("bounding_chain", "_fillers", "_image"):
        assert not hasattr(HomologyResult, attr)
    assert "fillers" not in inspect.signature(HomologyResult).parameters
    assert not hasattr(groupoid_homology.mv, "invariant_factors")
    # Smith forms track U and U⁻¹ on one keyword, never V, V⁻¹ or D
    assert list(inspect.signature(groupoid_homology.smith_normal_form).parameters) == ["m", "rows"]
    assert "transforms" not in inspect.signature(groupoid_homology.smith_normal_form).parameters


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


def test_benchmark_tracer_sees_the_mayer_vietoris_layers(monkeypatch, tmp_path):
    # perfbench/run.py reports the self times of mv.connecting, mv.chain_ses
    # and mv.long_exact_sequence by these names; one `mv` call reaches all three
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import tracing

    path = gen_file(tmp_path, "units:3", "u3.json")
    tracer = tracing.Tracer("groupoid_homology")
    tracer.install()
    try:
        code, out, err = run_cli(["mv", "-i", path, "-N", "2", "--u1", "0,1", "--u2", "1,2"])
    finally:
        tracer.uninstall()
    assert (code, err) == (0, "") and "all nodes exact: true" in out
    _, calls = tracer.self_times(0)
    for name in ("mv.connecting", "mv.chain_ses", "mv.long_exact_sequence"):
        assert calls[name] > 0, name
