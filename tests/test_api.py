"""The package's public surface: `__all__`, star import, removed names, and
a caller in `src/` for every public function and method."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import groupoid_homology
import groupoid_homology.mv
from groupoid_homology import (
    ConnectingResult,
    FinAbGroup,
    FiniteGroupoid,
    FreeChainComplex,
    GroupHom,
    HomologyResult,
    IntegerMatrix,
    MvChainSes,
    PresentedGroup,
    moore_complex,
    one_object_cyclic,
)

from test_cli import gen_file, run_cli

REMOVED = ("kernel_basis", "in_column_lattice", "same_column_lattice", "solve_columns",
           "column_lattice_basis", "homology_with_coefficients", "validate_groupoid",
           "face", "nerve", "NerveLevel", "pushforward_matrix", "SparseMatrix", "SmithDecomposition",
           "homology_int", "homology_group", "shift_sum", "is_saturated", "rank", "connecting")
# wrappers and helpers with no caller in src/, deleted from their classes
REMOVED_METHODS = {
    FreeChainComplex: ("zero_boundaries",),
    GroupHom: ("compose",),
    PresentedGroup: ("elements", "is_zero_element", "relations", "from_diagonal", "free", "cyclic"),
    FinAbGroup: ("exponent", "summands", "__add__"),
    FiniteGroupoid: ("save",),
    IntegerMatrix: ("block_diag", "hstack", "vstack"),
}
# the dense twin's bridges and arithmetic, deleted with it; the one matrix
# type stores sparse rows and multiplies with `matmul` alone
DENSE_ONLY = ("from_dense", "to_dense", "column_vector", "identity", "zeros", "transpose",
              "mod", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__str__")

MODULES = {
    info.name: importlib.import_module(f"groupoid_homology.{info.name}")
    for info in pkgutil.iter_modules(groupoid_homology.__path__)
    if info.name != "__main__"
}


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
        for module in MODULES.values():
            assert not hasattr(module, name)
    for cls, attrs in REMOVED_METHODS.items():
        for attr in attrs:
            assert not hasattr(cls, attr), (cls.__name__, attr)
    # chain complexes are over Z only: no Z/q complexes, no residue reduction, no labels
    assert "modulus" not in inspect.signature(groupoid_homology.moore_complex).parameters
    for attr in DENSE_ONLY:
        assert attr not in vars(groupoid_homology.IntegerMatrix)
    for attr in ("modulus", "basis_labels"):
        assert not hasattr(groupoid_homology.FreeChainComplex, attr)
    # the Mayer–Vietoris maps act on chains through position lists: no α/β
    # matrices, no index table of their own, no cycle lifts or bounding chains
    # a piece's chains are ambient chains: no piece complexes, no index lists
    for attr in ("intersection_to_piece1", "cycle_lift", "_build_degree",
                 "overlap", "complex1", "complex2", "complex12"):
        assert not hasattr(MvChainSes, attr)
    assert not hasattr(groupoid_homology.mv, "_subcomplexes")
    assert inspect.isfunction(MvChainSes.to_pieces) and inspect.isfunction(MvChainSes.to_total)
    assert not hasattr(ConnectingResult, "is_zero_class")
    for attr in ("bounding_chain", "_fillers", "_image"):
        assert not hasattr(HomologyResult, attr)
    assert "fillers" not in inspect.signature(HomologyResult).parameters
    assert not hasattr(groupoid_homology.mv, "invariant_factors")
    # Smith forms track U and U⁻¹ on one keyword, never V, V⁻¹ or D
    assert list(inspect.signature(groupoid_homology.smith_normal_form).parameters) == ["m", "rows"]
    assert "transforms" not in inspect.signature(groupoid_homology.smith_normal_form).parameters


# public names that nothing in src/ calls, each kept for a reason of its own
KEEP = {
    "uct.mod_reduction_check": "the UCT maps of ROADMAP item 5 call it",
    "uct.cantor_obstruction": "the Cantor demonstration, acceptance criterion 10",
    "uct.CantorReport.all_widths_positive": "the Cantor demonstration, acceptance criterion 10",
    "uct.decompose_step_function": "the Cantor demonstration, acceptance criterion 10",
    "sft.collision_search": "the classification experiment, acceptance criterion 9",
}


def _uncalled_public_defs(src: Path) -> list[str]:
    """`module.name` or `module.Class.name` for each public top-level function
    or public method (dunders exempt) that nothing in `src` names outside its
    own def, `__init__.py` not counted.

    A function is named by a load of its name in its own module or in one
    that imports it from there; a method by an attribute call `x.name(...)`,
    or any `x.name` for a property, so a data attribute that shares the name
    of a method does not count as a caller.  Nor does `Other.name` with
    `Other` a different class defined in `src`: `FinAbGroup.free(...)` does
    not call `PresentedGroup.free`.
    """
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))
             if p.name != "__init__.py"}
    calls = {node.func for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)}
    classes = {node.name for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)}
    uncalled = []
    for module, tree in trees.items():
        defs = []
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((node.name, node, None))
            elif isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{f.name}", f, node.name) for f in node.body if isinstance(f, ast.FunctionDef)]
        for qualname, fn, owner in defs:
            if fn.name.startswith("_"):
                continue
            prop = any(isinstance(d, ast.Name) and d.id == "property" for d in fn.decorator_list)
            named = False
            for other, other_tree in trees.items():
                if owner:
                    uses = (n for n in ast.walk(other_tree) if isinstance(n, ast.Attribute)
                            and n.attr == fn.name and (prop or n in calls)
                            and not (isinstance(n.value, ast.Name) and n.value.id in classes - {owner}))
                elif other == module or any(
                    isinstance(n, ast.ImportFrom) and n.level == 1 and n.module == module
                    and any(alias.name == fn.name for alias in n.names) for n in other_tree.body
                ):
                    uses = (n for n in ast.walk(other_tree) if isinstance(n, ast.Name) and n.id == fn.name)
                else:
                    continue
                if any(other != module or not fn.lineno <= n.lineno <= fn.end_lineno for n in uses):
                    named = True
                    break
            if not named:
                uncalled.append(f"{module}.{qualname}")
    return uncalled


def test_every_public_def_has_a_caller_in_src():
    # a public function or method that only `__init__` and the tests reach is
    # a wrapper to delete (or a KEEP entry with its reason)
    src = Path(groupoid_homology.__file__).resolve().parent
    uncalled = _uncalled_public_defs(src)
    assert sorted(set(uncalled) - KEEP.keys()) == []
    assert sorted(KEEP.keys() - set(uncalled)) == []  # a KEEP entry that gained a caller goes


def test_benchmark_tracer_wraps_the_matrix_product(monkeypatch):
    # perfbench/tracing.py wraps IntegerMatrix.__dict__["matmul"] as
    # `matrix.matmul`, so the class keeps that name and defines matmul itself;
    # the public constructor's two ∂∘∂ products then show up as two traced
    # calls; moore_complex checks ∂∘∂ = 0 on its face tables and makes none
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import tracing

    tracer = tracing.Tracer("groupoid_homology")
    tracer.install()
    try:
        c = groupoid_homology.moore_complex(one_object_cyclic(4), 3)  # the traced binding
        first = len(tracer.spans)
        FreeChainComplex(c.dims, c.boundaries)
    finally:
        tracer.uninstall()
    _, calls = tracer.self_times(0)
    _, checked = tracer.self_times(first)
    assert calls["groupoids.moore_complex"] == 1
    assert checked["matrix.matmul"] == calls["matrix.matmul"] == 2


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
