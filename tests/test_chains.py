"""Tests for the free-chain-complex layer: validation, homology, coefficients.

Fixture strategy: build complexes in a plain "staircase" form whose homology
is known by construction (free generators contribute Z, each arrow of
multiplicity d contributes Z/d to the degree it lands in), then disguise the
boundary matrices by unimodular change of basis in every degree.  Homology is
basis-independent, so the expected groups carry over while the matrices the
library sees look generic.  Mod-q results are cross-checked against the
brute-force enumeration oracle.
"""

import random
import subprocess
import sys

import pytest

import groupoid_homology.chains as chains_module
import groupoid_homology.matrix as matrix_module
from groupoid_homology import (
    FinAbGroup,
    FiniteGroupoid,
    FreeChainComplex,
    IntegerMatrix,
    SparseMatrix,
    direct_sum,
    homology_group,
    homology_groups,
    homology_int,
    homology_mod,
    homology_results,
    moore_complex,
    one_object_cyclic,
    shift_sum,
    sweep_invariant_factors,
)
from groupoid_homology.chains import _cones

import oracles
from test_acceptance import corpus
from test_cli import child_env


# -- fixture machinery ---------------------------------------------------------------


def random_unimodular(rng, n, ops=None):
    """A unimodular integer matrix and its exact inverse, as a pair."""
    w = [[int(i == j) for j in range(n)] for i in range(n)]
    winv = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n + 3 if ops is None else ops):
        kind = rng.randrange(3)
        i = rng.randrange(n) if n else 0
        j = rng.randrange(n) if n else 0
        if n == 0:
            break
        if kind == 0 and i != j:
            c = rng.randint(-2, 2)
            # W <- E W with E: row_i += c*row_j; Winv <- Winv E^{-1}
            w[i] = [a + c * b for a, b in zip(w[i], w[j])]
            for row in winv:
                row[j] -= c * row[i]
        elif kind == 1 and i != j:
            w[i], w[j] = w[j], w[i]
            for row in winv:
                row[i], row[j] = row[j], row[i]
        elif kind == 2:
            w[i] = [-a for a in w[i]]
            for row in winv:
                row[i] = -row[i]
    wm = IntegerMatrix.from_rows(w, cols=n)
    wim = IntegerMatrix.from_rows(winv, cols=n)
    assert wm.matmul(wim) == IntegerMatrix.identity(n)
    return wm, wim


def staircase_complex(rng, depth, max_free=2, max_arrows=2, max_mult=9):
    """A random staircase complex plus its expected homology in each degree.

    Degree n holds `free[n]` untouched generators, one source generator per
    arrow of `mults[n]` (mapping down with that multiplicity), and one target
    generator per arrow of `mults[n+1]`.  Sources and targets are disjoint,
    so consecutive boundaries compose to zero by construction.
    """
    free = [rng.randint(0, max_free) for _ in range(depth + 1)]
    mults = [[]] + [
        [rng.randint(1, max_mult) for _ in range(rng.randint(0, max_arrows))]
        for _ in range(depth)
    ]
    mults.append([])  # nothing maps into degree `depth` from above
    dims = [free[n] + len(mults[n]) + len(mults[n + 1]) for n in range(depth + 1)]
    if dims[0] == 0:
        free[0] = 1
        dims[0] = 1
    boundaries = [IntegerMatrix.zeros(0, dims[0])]
    for n in range(1, depth + 1):
        b = [[0] * dims[n] for _ in range(dims[n - 1])]
        for k, d in enumerate(mults[n]):
            col = free[n] + k
            row = free[n - 1] + len(mults[n - 1]) + k
            b[row][col] = d
        boundaries.append(IntegerMatrix.from_rows(b, cols=dims[n]))
    expected = [
        FinAbGroup.from_cyclic_orders(list(mults[n + 1]) + [0] * free[n])
        for n in range(depth + 1)
    ]
    return FreeChainComplex(dims, boundaries), expected


def scramble(rng, complex_):
    """Unimodular change of basis in every degree; homology is unchanged."""
    pairs = [random_unimodular(rng, d) for d in complex_.dims]
    boundaries = [IntegerMatrix.zeros(0, complex_.dims[0]).matmul(pairs[0][0])]
    for n in range(1, len(complex_.dims)):
        boundaries.append(
            pairs[n - 1][1].matmul(complex_.boundaries[n].to_dense()).matmul(pairs[n][0])
        )
    return FreeChainComplex(complex_.dims, boundaries, modulus=complex_.modulus)


def random_disguised(seed, depth=3):
    rng = random.Random(seed)
    plain, expected = staircase_complex(rng, depth)
    return scramble(rng, plain), expected


# -- validation ----------------------------------------------------------------------


def test_validation_empty_and_negative():
    with pytest.raises(ValueError, match="shape mismatch: empty complex"):
        FreeChainComplex([], [])
    with pytest.raises(ValueError, match="shape mismatch: negative dimension"):
        FreeChainComplex([-1], [IntegerMatrix.zeros(0, 0)])


def test_validation_boundary_count():
    with pytest.raises(ValueError, match="2 degrees but 1 boundary maps"):
        FreeChainComplex([1, 1], [IntegerMatrix.zeros(0, 1)])


def test_validation_boundary_zero_shape():
    with pytest.raises(ValueError, match="boundary 0 must be 0 x dims"):
        FreeChainComplex([2], [IntegerMatrix.zeros(0, 1)])
    with pytest.raises(ValueError, match="boundary 0 must be 0 x dims"):
        FreeChainComplex([1], [IntegerMatrix.zeros(1, 1)])


def test_validation_interior_shape():
    with pytest.raises(ValueError, match=r"boundary 1 is 2x1, expected 1x2"):
        FreeChainComplex(
            [1, 2],
            [IntegerMatrix.zeros(0, 1), IntegerMatrix.zeros(2, 1)],
        )


def test_validation_labels():
    with pytest.raises(ValueError, match="basis labels do not match dims"):
        FreeChainComplex(
            [2],
            [IntegerMatrix.zeros(0, 2)],
            basis_labels=[["only-one"]],
        )


def test_validation_square_nonzero():
    # d1 = [1], d2 = [1]: the square is [1], nonzero
    with pytest.raises(ValueError, match="boundary square nonzero at degree 2") as excinfo:
        FreeChainComplex(
            [1, 1, 1],
            [
                IntegerMatrix.zeros(0, 1),
                IntegerMatrix.from_rows([[1]]),
                IntegerMatrix.from_rows([[1]]),
            ],
        )
    assert str(excinfo.value) == "boundary square nonzero at degree 2: column 0 maps to [1]"


def test_validation_square_witness_is_first_nonzero_column():
    # d1 d2 = [[0, 0, 1], [0, 0, -2]]: columns 0 and 1 vanish, column 2 does not
    with pytest.raises(ValueError) as excinfo:
        FreeChainComplex(
            [2, 2, 3],
            [
                IntegerMatrix.zeros(0, 2),
                IntegerMatrix.from_rows([[1, 0], [0, 2]]),
                IntegerMatrix.from_rows([[0, 0, 1], [0, 0, -1]]),
            ],
        )
    assert str(excinfo.value) == "boundary square nonzero at degree 2: column 2 maps to [1, -2]"


def test_validation_negative_modulus():
    with pytest.raises(ValueError, match="negative modulus"):
        FreeChainComplex([1], [IntegerMatrix.zeros(0, 1)], modulus=-2)


def test_modular_complex_square_vanishes_only_mod_q():
    # d1 = [2], d2 = [3]: square is 6, zero mod 6 but not over Z
    dims = [1, 1, 1]
    bnds = [
        IntegerMatrix.zeros(0, 1),
        IntegerMatrix.from_rows([[2]]),
        IntegerMatrix.from_rows([[3]]),
    ]
    with pytest.raises(ValueError, match="boundary square nonzero at degree 2") as excinfo:
        FreeChainComplex(dims, bnds)
    assert str(excinfo.value) == "boundary square nonzero at degree 2: column 0 maps to [6]"
    c = FreeChainComplex(dims, bnds, modulus=6)
    assert c.modulus == 6
    assert c.max_degree == 2


def test_modular_witness_reports_residues():
    # d1 = [2], d2 = [3] over Z/4: the square 6 is the residue 2
    bnds = [IntegerMatrix.zeros(0, 1), IntegerMatrix.from_rows([[2]]), IntegerMatrix.from_rows([[3]])]
    with pytest.raises(ValueError) as excinfo:
        FreeChainComplex([1, 1, 1], bnds, modulus=4)
    assert str(excinfo.value) == "boundary square nonzero at degree 2: column 0 maps to [2]"


def test_corrupted_sparse_boundary_raises_under_optimize_flag():
    # `python -O` strips bare asserts; one corrupted entry of a sparse Moore
    # boundary must still fail the ∂∘∂ check, with the dense product's witness
    program = "\n".join(
        [
            "import sys",
            "from groupoid_homology import FreeChainComplex, IntegerMatrix, SparseMatrix,"
            " moore_complex, one_object_cyclic",
            "if not sys.flags.optimize:",
            "    raise SystemExit('child is not optimized')",
            "c = moore_complex(one_object_cyclic(3), 3)",
            "rows = [c.boundaries[2].row(i) for i in range(c.boundaries[2].rows)]",
            "rows[0][1] += 1",
            "dense = IntegerMatrix.from_rows(rows).matmul(c.boundaries[3].to_dense())",
            "j = next(j for j in range(dense.cols) if any(dense.column(j)))",
            "print(f'boundary square nonzero at degree 3: column {j} maps to {dense.column(j)}')",
            "bad = SparseMatrix.from_dense(IntegerMatrix.from_rows(rows))",
            "FreeChainComplex(c.dims, c.boundaries[:2] + [bad] + c.boundaries[3:])",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", program],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )
    assert proc.returncode != 0
    expected = proc.stdout.strip()
    assert expected.startswith("boundary square nonzero at degree 3: column ")
    assert f"ValueError: {expected}" in proc.stderr


def test_zero_boundaries_constructor():
    c = FreeChainComplex.zero_boundaries([3, 2, 5])
    assert c.dims == [3, 2, 5]
    assert c.max_degree == 2
    assert all(b.is_zero() for b in c.boundaries)
    # every generator survives: H_n = Z^dims[n] in trusted degrees
    assert homology_group(c, 0) == FinAbGroup.free(3)
    assert homology_group(c, 1) == FinAbGroup.free(2)


# -- frozen examples -----------------------------------------------------------------


def test_point_like_complex():
    # one generator per degree, boundaries alternating 0, 1, 0, 1
    c = FreeChainComplex(
        [1, 1, 1, 1, 1],
        [
            IntegerMatrix.zeros(0, 1),
            IntegerMatrix.from_rows([[0]]),
            IntegerMatrix.from_rows([[1]]),
            IntegerMatrix.from_rows([[0]]),
            IntegerMatrix.from_rows([[1]]),
        ],
    )
    assert homology_group(c, 0) == FinAbGroup.free(1)
    for n in (1, 2, 3):
        assert homology_group(c, n).is_trivial()


KLEIN_STYLE = (
    [1, 2, 1],
    [[], [0, 0], [0, 2]],
)


def klein_complex():
    dims, rows = KLEIN_STYLE
    return FreeChainComplex(
        dims,
        [
            IntegerMatrix.zeros(0, 1),
            IntegerMatrix.from_rows([rows[1]], cols=2),
            IntegerMatrix.from_rows([[rows[2][0]], [rows[2][1]]], cols=1),
        ],
    )


def test_klein_style_integral():
    c = klein_complex()
    h0 = homology_int(c, 0)
    h1 = homology_int(c, 1)
    assert h0.group == FinAbGroup.free(1)
    assert h1.group == FinAbGroup(1, (2,))
    assert h1.group.render() == "Z ⊕ Z/2"
    assert homology_group(c, 0) == h0.group
    assert homology_group(c, 1) == h1.group


@pytest.mark.parametrize(
    "q,expected_h0,expected_h1",
    [
        (2, FinAbGroup(0, (2,)), FinAbGroup(0, (2, 2))),
        (3, FinAbGroup(0, (3,)), FinAbGroup(0, (3,))),
        (4, FinAbGroup(0, (4,)), FinAbGroup(0, (2, 4))),
        (5, FinAbGroup(0, (5,)), FinAbGroup(0, (5,))),
        (1, FinAbGroup.trivial(), FinAbGroup.trivial()),
    ],
)
def test_klein_style_mod_q(q, expected_h0, expected_h1):
    c = klein_complex()
    assert homology_mod(c, q, 0).group == expected_h0
    assert homology_mod(c, q, 1).group == expected_h1


def test_torsion_only_frozen():
    # d1 = [[2,0],[0,0]], d2 = [[0,0],[3,6]]: H_0 = Z + Z/2, H_1 = Z/3
    c = FreeChainComplex(
        [2, 2, 2],
        [
            IntegerMatrix.zeros(0, 2),
            IntegerMatrix.from_rows([[2, 0], [0, 0]]),
            IntegerMatrix.from_rows([[0, 0], [3, 6]]),
        ],
    )
    assert homology_int(c, 0).group == FinAbGroup(1, (2,))
    assert homology_int(c, 1).group == FinAbGroup(0, (3,))


def test_mod_zero_falls_back_to_integral():
    c = klein_complex()
    assert homology_mod(c, 0, 1).group == FinAbGroup(1, (2,))
    assert homology_mod(c, 0, 1).modulus == 0


# -- representatives and class coordinates -------------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_homology_int_representatives(seed):
    c, expected = random_disguised(seed)
    rng = random.Random(10_000 + seed)
    for n in range(c.max_degree):
        res = homology_int(c, n)
        assert res.group == expected[n]
        assert res.degree == n and res.modulus == 0
        assert res.presentation.group() == res.group
        k = len(res.cycle_reps)
        boundary = c.boundaries[n]
        following = c.boundaries[n + 1]
        for i, rep in enumerate(res.cycle_reps):
            assert not any(boundary.mul_vector(rep)), "representative is not a cycle"
            coords = res.class_coords(rep)
            assert coords == tuple(int(i == j) for j in range(k))
        if k:
            # adding any boundary never moves the class
            noise = following.mul_vector(
                [rng.randint(-4, 4) for _ in range(following.cols)]
            )
            rep = res.cycle_reps[0]
            shifted = [a + b for a, b in zip(rep, noise)]
            assert res.same_class(rep, shifted)
            # torsion generators die after `order` many steps
            rel = res.presentation.relations
            for i, rep in enumerate(res.cycle_reps):
                row = rel.row(i)
                nonzero = [x for x in row if x]
                order = nonzero[0] if nonzero else 0
                if order:
                    multiple = [order * x for x in rep]
                    assert res.class_coords(multiple) == tuple([0] * k)


def test_class_coords_rejects_non_cycles_and_bad_shapes():
    c = FreeChainComplex(
        [1, 1, 1],
        [
            IntegerMatrix.zeros(0, 1),
            IntegerMatrix.from_rows([[2]]),
            IntegerMatrix.from_rows([[0]]),
        ],
    )
    res = homology_int(c, 1)
    assert res.group.is_trivial()
    with pytest.raises(ValueError, match="not a cycle"):
        res.class_coords([1])
    with pytest.raises(ValueError, match="shape mismatch"):
        res.class_coords([1, 2])
    # mod 4 the cycles are K = {v : 2v ∈ 4Z} = 2Z: the chain 2 has boundary
    # 4 ∈ 4Z, nonzero, and carries Tor(Z/2, Z/4); the chain 1 is no cycle
    res = homology_mod(c, 4, 1)
    assert res.group == FinAbGroup.cyclic(2)
    assert res.class_coords([2]) == res.class_coords([6]) == (1,)
    assert res.class_coords([4]) == (0,)
    with pytest.raises(ValueError, match="not a cycle"):
        res.class_coords([1])
    with pytest.raises(ValueError, match="shape mismatch"):
        res.class_coords([2, 0])
    # over Z/6 with ∂_2 = (3), ∂∘∂ = 6 vanishes only mod 6, so the chain 3
    # (boundary 6) lifts to (3; -1), not (3; 0)
    c6 = FreeChainComplex(
        [1, 1, 1],
        [
            IntegerMatrix.zeros(0, 1),
            IntegerMatrix.from_rows([[2]]),
            IntegerMatrix.from_rows([[3]]),
        ],
        modulus=6,
    )
    res = homology_mod(c6, 6, 1)
    assert res.group.is_trivial()
    assert res.class_coords([3]) == ()
    with pytest.raises(ValueError, match="not a cycle"):
        res.class_coords([1])
    with pytest.raises(ValueError, match="shape mismatch"):
        res.class_coords([])


def test_degree_bounds():
    c = klein_complex()
    with pytest.raises(ValueError, match="negative degree"):
        homology_int(c, -1)
    with pytest.raises(ValueError, match="degree exceeds trusted truncation"):
        homology_int(c, 2)
    with pytest.raises(ValueError, match="degree exceeds trusted truncation"):
        homology_mod(c, 3, 2)
    with pytest.raises(ValueError, match="degree exceeds trusted truncation"):
        homology_group(c, 2)


def test_integral_routes_agree_on_random_complexes():
    for seed in range(25):
        c, expected = random_disguised(seed, depth=3)
        for n in range(c.max_degree):
            assert homology_group(c, n) == expected[n]
            assert homology_int(c, n).group == expected[n]


# -- mod-q homology vs the enumeration oracle ----------------------------------------


def _oracle_check(c, q, n):
    res = homology_mod(c, q, n)
    powers, order = oracles.enumerate_mod_homology(
        [c.boundaries[n].row(i) for i in range(c.boundaries[n].rows)],
        [c.boundaries[n + 1].row(i) for i in range(c.boundaries[n + 1].rows)],
        c.dims[n],
        q,
    )
    assert res.group.rank == 0
    assert res.group.order() == order
    assert sorted(res.group.primary_decomposition()) == powers
    assert homology_group(c, n, q) == res.group
    return res


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6, 8, 9, 12])
def test_mod_q_matches_enumeration_frozen(q):
    c = klein_complex()
    for n in range(c.max_degree):
        _oracle_check(c, q, n)


@pytest.mark.parametrize("seed", range(10))
def test_mod_q_matches_enumeration_random(seed):
    rng = random.Random(500 + seed)
    plain, _ = staircase_complex(rng, 2, max_free=1, max_arrows=2, max_mult=6)
    c = scramble(rng, plain)
    for q in (2, 3, 4, 6):
        for n in range(c.max_degree):
            if q ** c.dims[n] <= 10**6:
                _oracle_check(c, q, n)


def test_mod_q_on_complex_over_z_mod_q():
    # boundary square vanishes only mod 6; homology mod 6 is still well defined
    c = FreeChainComplex(
        [1, 1, 1],
        [
            IntegerMatrix.zeros(0, 1),
            IntegerMatrix.from_rows([[2]]),
            IntegerMatrix.from_rows([[3]]),
        ],
        modulus=6,
    )
    res0 = _oracle_check(c, 6, 0)
    res1 = _oracle_check(c, 6, 1)
    assert res0.group == FinAbGroup(0, (2,))
    assert res1.group.is_trivial()


def test_mod_q_representative_properties():
    c, _ = random_disguised(3, depth=2)
    q = 4
    for n in range(c.max_degree):
        res = homology_mod(c, q, n)
        for i, rep in enumerate(res.cycle_reps):
            # cycles mod q: boundary lands in qZ
            image = c.boundaries[n].mul_vector(rep)
            assert all(x % q == 0 for x in image)
            k = len(res.cycle_reps)
            assert res.class_coords(rep) == tuple(int(i == j) for j in range(k))
        # q * anything is a relation: scaling a representative kills its class
        for rep in res.cycle_reps:
            assert res.class_coords([q * x for x in rep]) == tuple(
                [0] * len(res.cycle_reps)
            )


@pytest.mark.parametrize("name_and_groupoid", corpus(), ids=lambda item: item[0])
def test_representatives_on_the_corpus(name_and_groupoid):
    # the relation Smith form runs on a column-reduced basis of B's
    # coordinates, so its U, and with it the representatives, differ from a
    # Smith form of the coordinates themselves; they must stay valid
    name, g = name_and_groupoid
    c = moore_complex(g, 3)
    rng = random.Random(name)
    for q in (0, 2, 4, 6):
        for n in range(3):
            res = homology_int(c, n) if q == 0 else homology_mod(c, q, n)
            k = len(res.cycle_reps)
            following = c.boundaries[n + 1]
            for i, rep in enumerate(res.cycle_reps):
                assert all(x % q == 0 if q else x == 0 for x in c.boundaries[n].mul_vector(rep))
                unit = tuple(int(i == j) for j in range(k))
                assert res.class_coords(rep) == unit
                noise = following.mul_vector(
                    [rng.randint(-3, 3) for _ in range(following.cols)]
                )
                assert res.class_coords([a + b for a, b in zip(rep, noise)]) == unit


def test_homology_errors_on_modulus_mismatch():
    c = FreeChainComplex(
        [1, 1],
        [IntegerMatrix.zeros(0, 1), IntegerMatrix.from_rows([[3]])],
        modulus=3,
    )
    with pytest.raises(ValueError, match="integral homology needs a complex over Z"):
        homology_int(c, 0)
    with pytest.raises(ValueError, match="integral homology needs a complex over Z"):
        homology_group(c, 0)
    with pytest.raises(ValueError, match="modulus mismatch: complex over Z/3, homology over Z/2"):
        homology_mod(c, 2, 0)
    with pytest.raises(ValueError, match="negative modulus"):
        homology_mod(klein_complex(), -1, 0)


# -- Z/q iso types from the mapping cone of q -----------------------------------------


@pytest.mark.parametrize("name_and_groupoid", corpus(), ids=lambda item: item[0])
def test_cone_route_matches_homology_mod_on_the_corpus(name_and_groupoid):
    # complexes over Z and over Z/q; the latter's ∂∘∂ is nonzero over Z on
    # most of the corpus, which the lower-left block of the cone must absorb
    name, g = name_and_groupoid
    plain = moore_complex(g, 3)
    square_nonzero = 0
    for q in range(1, 13):
        reduced = moore_complex(g, 3, modulus=q)
        square_nonzero += any(
            not reduced.boundaries[n].matmul(reduced.boundaries[n + 1]).is_zero()
            for n in range(1, 3)
        )
        for c in (plain, reduced):
            for n in range(3):
                assert homology_group(c, n, q) == homology_mod(c, q, n).group, (name, q, n)
    assert homology_group(plain, 1, 0) == homology_int(plain, 1).group
    if name in ("cyclic(3)", "pair(3)", "action(4, swap)"):
        assert square_nonzero >= 6, name


def test_cone_route_errors():
    c = klein_complex()
    with pytest.raises(ValueError, match="negative modulus"):
        homology_group(c, 0, -1)
    with pytest.raises(ValueError, match="negative degree"):
        homology_group(c, -1, 2)
    with pytest.raises(ValueError, match="degree exceeds trusted truncation"):
        homology_group(c, 2, 2)
    over_z6 = FreeChainComplex(
        [1, 1, 1],
        [IntegerMatrix.zeros(0, 1), IntegerMatrix.from_rows([[2]]), IntegerMatrix.from_rows([[3]])],
        modulus=6,
    )
    assert homology_group(over_z6, 0, 6) == FinAbGroup(0, (2,))
    assert homology_group(over_z6, 1, 6).is_trivial()
    with pytest.raises(ValueError, match="modulus mismatch: complex over Z/6, homology over Z/4"):
        homology_group(over_z6, 1, 4)
    with pytest.raises(ValueError, match="integral homology needs a complex over Z"):
        homology_group(over_z6, 1, 0)
    # boundaries corrupted after validation: 2 * 4 = 8 is not zero mod 6 ...
    over_z6.boundaries[2] = SparseMatrix.from_dense(IntegerMatrix.from_rows([[4]]))
    with pytest.raises(ValueError, match="boundary square nonzero mod 6 at degree 2"):
        homology_group(over_z6, 1, 6)
    # ... and over Z, 2 * 3 = 6 != 0 gives the cone an extra rank
    over_z = FreeChainComplex(
        [1, 1, 1],
        [IntegerMatrix.zeros(0, 1), IntegerMatrix.from_rows([[2]]), IntegerMatrix.zeros(1, 1)],
    )
    over_z.boundaries[2] = SparseMatrix.from_dense(IntegerMatrix.from_rows([[3]]))
    with pytest.raises(ValueError) as excinfo:
        homology_group(over_z, 1, 4)
    assert str(excinfo.value) == (
        "boundary square nonzero: the cone of 4 in degree 1 has rank 2, not dims[1] = 1"
    )


def test_cone_free_rank_check_raises_under_optimize_flag():
    # `python -O` strips bare asserts; a Moore boundary corrupted after
    # validation must still make the Z/q route raise, not return a group
    program = "\n".join(
        [
            "import sys",
            "from groupoid_homology import IntegerMatrix, SparseMatrix, homology_group,"
            " moore_complex, one_object_cyclic",
            "if not sys.flags.optimize:",
            "    raise SystemExit('child is not optimized')",
            "c = moore_complex(one_object_cyclic(3), 3)",
            "print(homology_group(c, 2, 4))",
            "rows = [c.boundaries[3].row(i) for i in range(c.boundaries[3].rows)]",
            "rows[0][0] += 1",
            "c.boundaries[3] = SparseMatrix.from_dense(IntegerMatrix.from_rows(rows))",
            "print(homology_group(c, 2, 4))",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", program],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )
    assert proc.returncode != 0
    assert proc.stdout == "0\n"  # H_2(Z/3; Z/4) before the corruption
    assert "ValueError: boundary square nonzero: the cone of 4 in degree 2 has rank " in proc.stderr


def test_cone_clearing_does_not_mask_a_corrupted_cleared_row(monkeypatch):
    # a row of ∂_3 that clearing skips in the cone F_2 (where it is row
    # dims[1] + i, at a unit low of F_1), corrupted after validation under
    # `python -O`, must still make the Z/q route raise, over Z and over Z/4
    cleared = []
    real_reduce = matrix_module._reduce
    monkeypatch.setattr(
        matrix_module, "_reduce", lambda m, skip, defer: cleared.append(skip) or real_reduce(m, skip, defer)
    )
    for modulus in (0, 4):
        c = moore_complex(one_object_cyclic(3), 3, modulus=modulus)
        homology_group(c, 2, 4)
    skipped = {i - c.dims[1] for i in cleared[2] & cleared[5] if i >= c.dims[1]}
    assert skipped
    program = "\n".join(
        [
            "import sys",
            "from groupoid_homology import homology_group, moore_complex, one_object_cyclic",
            "if not sys.flags.optimize:",
            "    raise SystemExit('child is not optimized')",
            "for modulus in (0, 4):",
            "    c = moore_complex(one_object_cyclic(3), 3, modulus=modulus)",
            "    print(homology_group(c, 2, 4))",
            f"    row = c.boundaries[3]._dicts[{min(skipped)}]",
            "    row[min(row)] += 1",
            "    try:",
            "        homology_group(c, 2, 4)",
            "    except ValueError as e:",
            "        print(e)",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", program],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == lines[2] == "0"  # H_2(Z/3; Z/4) before the corruption
    assert lines[1].startswith("boundary square nonzero: the cone of 4 in degree 2 has rank ")
    assert lines[3] == "boundary square nonzero mod 4 at degree 3"


# -- representatives from the recorded column reduction ---------------------------------


def test_representatives_keep_a_non_unit_low():
    # ∂_1 = 0 and ∂_2 = (2): the pivot of ∂_2 has low 0 and value 2, so the
    # column of ∂_1 stays; clearing it would swap the cycle 1 for 2 and lose Z/2
    c = FreeChainComplex([1, 1, 1], [IntegerMatrix.zeros(0, 1), IntegerMatrix.zeros(1, 1),
                                     IntegerMatrix.from_rows([[2]])])
    h0, h1 = homology_results(c)
    assert h0.group == FinAbGroup(1, ()) and h1.group == FinAbGroup.cyclic(2)
    assert h1.cycle_reps in ([[1]], [[-1]])
    assert h1.class_coords([3]) == (1,) and h1.class_coords([4]) == (0,)
    assert h0.bounding_chain([0]) == [0] and h0.bounding_chain([1]) is None


def test_cleared_cycle_check_raises_under_optimize_flag(monkeypatch):
    # an entry of ∂_2 in a column that clearing skips is read by nothing but
    # the check of the cleared cycle; corrupted after construction under
    # `python -O`, it must still raise, over Z and over Z/4
    skipped = []
    real_reduce = chains_module.reduce_columns

    def spy(cols, records=None, skip=()):
        skipped.append(set(skip))
        return real_reduce(cols, records, skip)

    monkeypatch.setattr(chains_module, "reduce_columns", spy)
    c = moore_complex(one_object_cyclic(3), 3)
    homology_results(c)
    j = min(skipped[1])  # the reductions run A_3, A_2, A_1, A_0
    i = min(i for i, row in enumerate(c.boundaries[2]._dicts) if j in row)
    program = "\n".join(
        [
            "import sys",
            "from groupoid_homology import homology_results, moore_complex, one_object_cyclic",
            "if not sys.flags.optimize:",
            "    raise SystemExit('child is not optimized')",
            "c = moore_complex(one_object_cyclic(3), 3)",
            "print([str(h.group) for h in homology_results(c, 4)])",
            f"c.boundaries[2]._dicts[{i}][{j}] += 1",
            "for q in (0, 4):",
            "    try:",
            "        homology_results(c, q)",
            "    except ValueError as e:",
            "        print(e)",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", program],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    expected = f"boundary square nonzero at degree 3: cleared cycle {j} is not a cycle"
    assert proc.stdout.splitlines() == ["['Z/4', '0', '0']", expected, expected]


@pytest.mark.parametrize("name_and_groupoid", corpus(), ids=[n for n, _ in corpus()])
def test_homology_results_on_relabelled_corpus(name_and_groupoid):
    # groups against the sparse sweep; representatives in K with unit class
    # coordinates; ∂x + qy has class zero, adding it moves no class, and
    # bounding_chain finds an x back below the top degree
    name, g = name_and_groupoid
    rng = random.Random(name)
    for seed in (1, 2):
        c = moore_complex(relabelled(g, seed), 3)
        for q in (0, 2, 3, 4, 6):
            results = homology_results(c, q)
            assert [h.group for h in results] == homology_groups(c, q), (name, seed, q)
            for n, h in enumerate(results):
                k = len(h.cycle_reps)
                following = c.boundaries[n + 1]
                x = [rng.randint(-3, 3) for _ in range(following.cols)]
                b = [v + q * rng.randint(-2, 2) for v in following.mul_vector(x)]
                assert h.class_coords(b) == (0,) * k, (name, seed, q, n)
                for i, rep in enumerate(h.cycle_reps):
                    assert not any(v % q if q else v for v in c.boundaries[n].mul_vector(rep))
                    unit = tuple(int(i == j) for j in range(k))
                    assert h.class_coords(rep) == unit, (name, seed, q, n)
                    assert h.class_coords([u + v for u, v in zip(rep, b)]) == unit
                if n == len(results) - 1:
                    with pytest.raises(ValueError, match="no fillers recorded in degree 3"):
                        h.bounding_chain(b)
                    continue
                y = h.bounding_chain(b)
                assert not any(v % q if q else v for v in
                               (u - w for u, w in zip(following.mul_vector(y), b))), (name, seed, q, n)


def relabelled(g, seed: int) -> FiniteGroupoid:
    """The groupoid with its arrows renumbered by a seeded permutation."""
    data = g.to_json()
    new = list(range(data["arrows"]))
    random.Random(seed).shuffle(new)
    out = {"arrows": data["arrows"], "units": sorted(new[u] for u in data["units"])}
    for key in ("source", "range", "inverse"):
        values = [0] * data["arrows"]
        for a, b in enumerate(data[key]):
            values[new[a]] = new[b]
        out[key] = values
    out["compose"] = sorted([new[x] for x in t] for t in data["compose"])
    return FiniteGroupoid.from_json(out)


def _oracle_factors(m) -> list[int]:
    rows = [m.row(i) for i in range(m.rows)]
    factors = oracles.smith_diag_by_elimination(rows)
    assert len(factors) == oracles.rank_over_q(rows)
    return factors


@pytest.mark.parametrize("name_and_groupoid", corpus(), ids=[n for n, _ in corpus()])
def test_sweep_matches_oracles_on_relabelled_corpus(name_and_groupoid):
    name, g = name_and_groupoid
    for seed in (1, 2):
        c = moore_complex(relabelled(g, seed), 3)
        swept = sweep_invariant_factors(c.boundaries[1:])
        assert swept == [_oracle_factors(b) for b in c.boundaries[1:]], (name, seed)
        assert homology_groups(c) == [homology_int(c, n).group for n in range(3)], (name, seed)


@pytest.mark.parametrize("name_and_groupoid", corpus(), ids=[n for n, _ in corpus()])
def test_sweep_matches_oracles_on_cones(name_and_groupoid):
    # the cones F_0..F_2 of q = 1..12, over Z and over Z/q: consecutive
    # products vanish, and rank F_n = dims[n]
    name, g = name_and_groupoid
    plain = moore_complex(g, 3)
    for q in range(1, 13):
        for c in (plain, moore_complex(g, 3, modulus=q)):
            cones = _cones(c, q, 2)
            assert all(a.matmul(b).is_zero() for a, b in zip(cones, cones[1:])), (name, q)
            swept = sweep_invariant_factors(cones)
            assert swept == [_oracle_factors(f) for f in cones], (name, q, c.modulus)
            assert [len(f) for f in swept] == c.dims[:3], (name, q, c.modulus)


# -- direct sums ---------------------------------------------------------------------


def test_shift_sum_dims_and_homology():
    ca, ea = random_disguised(101, depth=2)
    cb, eb = random_disguised(102, depth=2)
    total = shift_sum([ca, cb])
    assert total.dims == [a + b for a, b in zip(ca.dims, cb.dims)]
    for n in range(total.max_degree):
        assert homology_group(total, n) == direct_sum([ea[n], eb[n]])
        assert homology_mod(total, 4, n).group == direct_sum(
            [homology_mod(ca, 4, n).group, homology_mod(cb, 4, n).group]
        )


def test_shift_sum_single_and_labels():
    c = klein_complex()
    assert shift_sum([c]).dims == c.dims
    la = FreeChainComplex(
        [1, 1],
        [IntegerMatrix.zeros(0, 1), IntegerMatrix.from_rows([[0]])],
        basis_labels=[["a0"], ["a1"]],
    )
    lb = FreeChainComplex(
        [2, 1],
        [IntegerMatrix.zeros(0, 2), IntegerMatrix.from_rows([[0], [0]])],
        basis_labels=[["b0", "b1"], ["b2"]],
    )
    total = shift_sum([la, lb])
    assert total.basis_labels[0] == [(0, "a0"), (1, "b0"), (1, "b1")]
    assert total.basis_labels[1] == [(0, "a1"), (1, "b2")]
    # labels drop out when any summand lacks them
    unlabeled = FreeChainComplex.zero_boundaries([1, 1])
    assert shift_sum([la, unlabeled]).basis_labels is None


def test_shift_sum_errors():
    with pytest.raises(ValueError, match="empty direct sum of complexes"):
        shift_sum([])
    with pytest.raises(ValueError, match="mixed truncation depth"):
        shift_sum([klein_complex(), FreeChainComplex.zero_boundaries([1, 1])])
    mod3 = FreeChainComplex([1, 1], [IntegerMatrix.zeros(0, 1), IntegerMatrix.from_rows([[3]])], modulus=3)
    plain = FreeChainComplex.zero_boundaries([1, 1])
    with pytest.raises(ValueError, match="modulus mismatch in direct sum"):
        shift_sum([mod3, plain])


# -- serialization -------------------------------------------------------------------


def test_json_roundtrip_plain():
    c, expected = random_disguised(77, depth=3)
    data = c.to_json()
    assert data["dims"] == c.dims
    assert "modulus" not in data
    # boundaries are flat row-major integer lists
    for n, flat in enumerate(data["boundaries"]):
        b = c.boundaries[n]
        assert flat == [b[i, j] for i in range(b.rows) for j in range(b.cols)]
    back = FreeChainComplex.from_json(data)
    assert back.dims == c.dims
    assert all(x == y for x, y in zip(back.boundaries, c.boundaries))
    for n in range(c.max_degree):
        assert homology_group(back, n) == expected[n]


def test_json_roundtrip_modulus():
    c = FreeChainComplex(
        [1, 1, 1],
        [
            IntegerMatrix.zeros(0, 1),
            IntegerMatrix.from_rows([[2]]),
            IntegerMatrix.from_rows([[3]]),
        ],
        modulus=6,
    )
    data = c.to_json()
    assert data["modulus"] == 6
    back = FreeChainComplex.from_json(data)
    assert back.modulus == 6
    assert back.boundaries[1] == c.boundaries[1]


def test_from_json_shape_error():
    with pytest.raises(ValueError, match="boundary count does not match dims"):
        FreeChainComplex.from_json({"dims": [1, 1], "boundaries": [[]]})


@pytest.mark.parametrize(
    "data, message",
    [
        ([1, 2], "must be a JSON object"),
        ({"boundaries": [[]]}, "missing key 'dims'"),
        ({"dims": [1]}, "missing key 'boundaries'"),
        ({"dims": 1, "boundaries": [[]]}, "'dims' must be a list"),
        ({"dims": [1], "boundaries": {"0": []}}, "'boundaries' must be a list"),
        ({"dims": [1, 1], "boundaries": [[], 2]}, "'boundaries' must be a list"),
        ({"dims": [1.7], "boundaries": [[]]}, "'dims' entries must be integers, got 1.7"),
        ({"dims": ["1"], "boundaries": [[]]}, "'dims' entries must be integers"),
        ({"dims": [True], "boundaries": [[]]}, "'dims' entries must be integers"),
        ({"dims": [1, 1], "boundaries": [[], ["2"]]}, "'boundaries' entries must be integers"),
        ({"dims": [1, 1], "boundaries": [[], [1.0]]}, "'boundaries' entries must be integers"),
        ({"dims": [1], "boundaries": [[]], "modulus": "2"}, "'modulus' must be an integer"),
        ({"dims": [1], "boundaries": [[]], "modulus": 2.0}, "'modulus' must be an integer"),
        ({"dims": [1], "boundaries": [[]], "modulus": None}, "'modulus' must be an integer"),
    ],
)
def test_from_json_rejects_without_coercing(data, message):
    with pytest.raises(ValueError, match=message):
        FreeChainComplex.from_json(data)
