"""Exact integer matrix layer: Smith forms, kernels, solving, lattices."""

import random

import pytest

import groupoid_homology.matrix as matrix_module
from groupoid_homology.matrix import (
    IntegerMatrix,
    echelon_coordinates,
    invariant_factors,
    reduce_columns,
    smith_normal_form,
    sweep_invariant_factors,
)

import oracles


def random_matrix(rng: random.Random, max_side: int = 6, spread: int = 9) -> IntegerMatrix:
    nrows = rng.randint(0, max_side)
    ncols = rng.randint(0, max_side)
    return IntegerMatrix.from_rows(
        [[rng.randint(-spread, spread) for _ in range(ncols)] for _ in range(nrows)],
        cols=ncols,
    )


def raw_rows(m: IntegerMatrix) -> list[list[int]]:
    return [m.row(i) for i in range(m.rows)]


def identity(n: int) -> IntegerMatrix:
    return IntegerMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)], cols=n)


def sparse_column(v) -> dict[int, int]:
    return {i: x for i, x in enumerate(v) if x}


def pivot_basis(m: IntegerMatrix) -> dict[int, dict[int, int]]:
    """`reduce_columns`'s pivots of m's columns, {low: column} in order of the lows."""
    cols = [sparse_column(m.column(j)) for j in range(m.cols)]
    pivots, _ = reduce_columns(cols)
    return {low: cols[pivots[low]] for low in sorted(pivots)}


# -- the oracles agree with each other first ----------------------------------


@pytest.mark.parametrize("seed", range(40))
def test_oracle_smith_routes_agree(seed):
    rng = random.Random(seed)
    rows = [[rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]]
    ncols = len(rows[0])
    for _ in range(rng.randint(0, 4)):
        rows.append([rng.randint(-9, 9) for _ in range(ncols)])
    by_minors = oracles.smith_diag_by_minors(rows)
    by_elim = oracles.smith_diag_by_elimination(rows)
    by_transform, u, uinv = oracles.smith_with_row_transform(rows)
    assert by_minors == [d for d in by_elim if d != 0]
    assert by_minors == by_transform
    # the tracked row transform must be a genuine inverse pair
    n = len(rows)
    prod = [
        [sum(u[i][k] * uinv[k][j] for k in range(n)) for j in range(n)] for i in range(n)
    ]
    assert prod == [[int(i == j) for j in range(n)] for i in range(n)]
    assert abs(oracles.det_bareiss(u)) == 1 if n else True


def test_oracle_group_elements_roundtrip():
    rng = random.Random(5)
    for _ in range(25):
        g = rng.randint(0, 3)
        extra = rng.randint(0, 2)
        # diagonal positive block guarantees a finite group; extra columns add noise
        rel = [
            [0] * g + [rng.randint(-6, 6) for _ in range(extra)] for _ in range(g)
        ]
        for i in range(g):
            rel[i][i] = rng.randint(1, 8)
        elements, canon, lift = oracles._group_elements(rel)
        for y in elements:
            assert canon(lift(y)) == tuple(y)
        assert len(set(elements)) == len(elements)
        # canon is constant on cosets of the relation lattice
        ncols = g + extra
        for _ in range(5):
            x = [rng.randint(-9, 9) for _ in range(g)]
            coeffs = [rng.randint(-3, 3) for _ in range(ncols)]
            shifted = [
                x[i] + sum(rel[i][j] * coeffs[j] for j in range(ncols)) for i in range(g)
            ]
            assert canon(x) == canon(shifted)


# -- smith normal form ----------------------------------------------------------


def test_smith_frozen_example():
    m = IntegerMatrix.from_rows([[2, 4], [6, 8]])
    diag, u, uinv = smith_normal_form(m, rows=True)
    assert diag == [2, 4]
    assert u.matmul(uinv) == identity(2)
    um = u.matmul(m)
    assert [x % d for i, d in enumerate(diag) for x in um.row(i)] == [0, 0, 0, 0]


@pytest.mark.parametrize("seed", range(60))
def test_smith_properties(seed):
    rng = random.Random(1000 + seed)
    m = random_matrix(rng)
    diag, u, uinv = smith_normal_form(m, rows=True)
    # U is unimodular, with U⁻¹ its exact inverse
    assert abs(oracles.det_bareiss(raw_rows(u))) == 1
    assert u.matmul(uinv) == identity(m.rows)
    # the diagonal is positive; normalized, it is the divisibility chain
    assert len(diag) == min(m.rows, m.cols)
    assert all(d > 0 for d in diag)
    torsion = matrix_module._normalize_torsion(d for d in diag if d >= 2)
    chain = [1] * (len(diag) - len(torsion)) + list(torsion)
    # row i of U·M lies in d_i·Z, and the rows past the rank are zero
    um = u.matmul(m)
    for i in range(m.rows):
        if i < len(diag):
            assert all(x % diag[i] == 0 for x in um.row(i))
        else:
            assert not any(um.row(i))
    # U·M has the invariant factors of M, so with the row conditions above
    # its column lattice is the direct sum of the d_i·Z
    assert oracles.smith_diag_by_minors(raw_rows(um)) == chain == oracles.smith_diag_by_minors(raw_rows(m))


@pytest.mark.parametrize("seed", range(60))
def test_smith_tracks_exactly_the_requested_transforms(seed):
    rng = random.Random(1000 + seed)
    m = random_matrix(rng)
    diag, u, uinv = smith_normal_form(m, rows=True)
    assert u.rows == u.cols == uinv.rows == uinv.cols == m.rows
    assert smith_normal_form(m, rows=False) == smith_normal_form(m) == (diag, None, None)


def test_smith_default_transforms_and_unknown_name():
    m = IntegerMatrix.from_rows([[2, 4], [6, 8]])
    assert smith_normal_form(m) == ([2, 4], None, None)
    # the keyword is `rows` alone: the old name list is refused, not read as truthy
    with pytest.raises(TypeError):
        smith_normal_form(m, transforms=("U",))
    with pytest.raises(TypeError):
        smith_normal_form(m, True)


@pytest.mark.parametrize("seed", range(60))
def test_invariant_factors_match_smith(seed):
    rng = random.Random(2000 + seed)
    m = random_matrix(rng, max_side=8, spread=20)
    fast = invariant_factors(m)
    assert fast == smith_normal_form(m)[0]
    # independent of smith_normal_form, which also reduces the sweep's remainder
    assert fast == oracles.smith_diag_by_elimination(raw_rows(m))
    assert len(fast) == oracles.rank_over_q(raw_rows(m))


def unit_heavy_rows() -> list[list[int]]:
    # mostly +-1 entries exercise the sparse elimination path
    rng = random.Random(99)
    rows = [[rng.choice([-1, 1, 0, 0, 1]) for _ in range(30)] for _ in range(24)]
    rows[3][7] = 6
    rows[11][2] = 15
    return rows


def seeded_sparse_rows(seed: int) -> list[list[int]]:
    rng = random.Random(3000 + seed)
    nrows, ncols = rng.randint(1, 30), rng.randint(1, 90)
    density = rng.choice([0.03, 0.1, 0.3])
    return [
        [rng.choice([-2, -1, 1, 2]) if rng.random() < density else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]


def dependent_rows(seed: int) -> list[list[int]]:
    # sums and differences of seeded rows: the eliminations must cancel them to zero
    rng = random.Random(4000 + seed)
    rows = seeded_sparse_rows(seed)
    for _ in range(rng.randint(1, 10)):
        a, b = rng.choice(rows), rng.choice(rows)
        sign = rng.choice([-1, 1])
        rows.append([x + sign * y for x, y in zip(a, b)])
    rng.shuffle(rows)
    return rows


def signed_permutation_rows(n: int) -> list[list[int]]:
    rng = random.Random(n)
    perm = rng.sample(range(n), n)
    return [[rng.choice([-1, 1]) if j == perm[i] else 0 for j in range(n)] for i in range(n)]


def unitriangular_rows(n: int) -> list[list[int]]:
    rng = random.Random(n)
    return [[1 if j == i else rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)]


SPARSE_PATH_CASES = {
    "unit-heavy": IntegerMatrix.from_rows(unit_heavy_rows()),
    **{f"seeded-{s}": IntegerMatrix.from_rows(seeded_sparse_rows(s)) for s in range(12)},
    **{f"dependent-{s}": IntegerMatrix.from_rows(dependent_rows(s)) for s in range(12, 24)},
    # row 0 holds no unit until the pivot on row 1 turns its 3 into a 1
    "gains-unit": IntegerMatrix.from_rows([[2, 3, 0, 0], [1, 1, 0, 0], [0, 0, 2, 4]]),
    # row 2's low holds a 2; the Schur step by the unit rows 0 and 1 leaves
    # (-1, 2) on columns 0 and 3, whose unit the Smith form takes first
    "same-length": IntegerMatrix.from_rows([[1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 2]]),
    **{f"permutation-{n}": IntegerMatrix.from_rows(signed_permutation_rows(n)) for n in (1, 7, 20)},
    "unitriangular": IntegerMatrix.from_rows(unitriangular_rows(12)),
    "identity-over-zero": IntegerMatrix.from_rows(
        [[int(i == j) for j in range(8)] for i in range(5)] + [[0] * 8]
    ),
    "no-units": IntegerMatrix.from_rows([[2, 4, 0, 6], [0, 6, -2, 0], [4, 0, 0, 8], [0, 0, 2, -2]]),
    # equal non-unit lows 4 and 6: Euclid leaves 2, which takes the low, and
    # the old pivot row reduces to (3, 0); the Smith form of the remainder
    # takes the -1 of (-1, 2) first and leaves (6)
    "equal-nonunit-lows": IntegerMatrix.from_rows([[1, 4], [0, 6]]),
    # lows 3 then 2 (and their negatives): the quotient 2 // 3 is 0, so the
    # row is unchanged and takes the low as it is
    "quotient-zero": IntegerMatrix.from_rows([[5, 3], [7, 2]]),
    "quotient-zero-negative": IntegerMatrix.from_rows([[5, -3], [7, -2]]),
    "quotient-zero-mixed": IntegerMatrix.from_rows([[0, 0, 3], [1, 0, 2], [0, 1, 3]]),
    # row 1's low holds a 2, but the unit row 0 turns its 1 into the remainder
    # (-1, 2), whose unit the Smith form of the remainder takes
    "schur-step": IntegerMatrix.from_rows([[1, 1, 0], [0, 1, 2]]),
    # the unit row 0 turns row 1 into (0, 0, 4): factors (1, 4), where the
    # gcd of row 1 as given would give 2
    "schur-needed": IntegerMatrix.from_rows([[0, 1, 0], [0, 2, 4]]),
    # the same through a chain of unit lows 2 then 1
    "schur-chain": IntegerMatrix.from_rows([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 2]]),
    "zero-3x5": IntegerMatrix(3, 5),
    "empty-0x4": IntegerMatrix(0, 4),
    "empty-4x0": IntegerMatrix(4, 0),
}
SMITH_INPUTS = {**{f"random-{s}": random_matrix(random.Random(1000 + s)) for s in range(60)}, **SPARSE_PATH_CASES}


@pytest.mark.parametrize("rows", [False, True])
@pytest.mark.parametrize("name", SMITH_INPUTS)
def test_smith_leaves_its_input_unchanged(name, rows):
    # the pivot loop runs on private copies of the row dicts
    m = SMITH_INPUTS[name]
    given = list(m._dicts)
    before = [dict(d) for d in given]
    diag = smith_normal_form(m, rows=rows)[0]
    assert m._dicts == before and all(d is g for d, g in zip(m._dicts, given))
    assert smith_normal_form(m, rows=rows)[0] == diag


# shape of the row-dict remainder handed to smith_normal_form: the non-unit
# rows after the Schur step, at the matrix's full width; None if none is
DENSE_REMAINDER = {
    "gains-unit": (1, 4),
    "same-length": (1, 4),
    "permutation-1": None,
    "permutation-7": None,
    "permutation-20": None,
    "identity-over-zero": None,
    "no-units": (4, 4),
    "equal-nonunit-lows": (2, 2),
    "schur-step": (1, 3),
    "schur-needed": (1, 3),
    "schur-chain": (1, 4),
    "zero-3x5": None,
    "empty-0x4": None,
    "empty-4x0": None,
}


@pytest.mark.parametrize("name", SPARSE_PATH_CASES)
def test_invariant_factors_sparse_path(name, monkeypatch):
    m = SPARSE_PATH_CASES[name]
    remainders = []

    def recording_smith(remainder, **kwargs):
        remainders.append((remainder.rows, remainder.cols))
        return smith_normal_form(remainder, **kwargs)

    monkeypatch.setattr(matrix_module, "smith_normal_form", recording_smith)
    assert invariant_factors(m) == oracles.smith_diag_by_elimination(raw_rows(m))
    if name in DENSE_REMAINDER:
        shape = DENSE_REMAINDER[name]
        assert remainders == ([] if shape is None else [shape])


@pytest.mark.parametrize("name", SPARSE_PATH_CASES)
def test_invariant_factors_sparse_twin(name):
    # the row dicts are read in place, with no converted twin: the reduction
    # copies a row only just before changing it, so the input is left as it
    # was and factors the same twice
    m = SPARSE_PATH_CASES[name]
    before = raw_rows(m)
    expected = oracles.smith_diag_by_elimination(before)
    assert invariant_factors(m) == invariant_factors(m) == expected
    assert m == IntegerMatrix.from_rows(before, cols=m.cols)


# -- the cochain-order sweep ----------------------------------------------------------


def test_sweep_clears_and_defers(monkeypatch):
    # d1·d2 = d2·d3 = 0; d1's unit low 1 clears row 1 of d2, d2's unit low 0
    # clears row 0 of d3, and d2's non-unit low 2 defers row 2 of d3; every
    # pivot of d3 is a unit, so that row is left out and d3 needs no Smith form
    d1 = IntegerMatrix.from_rows([[-1, -1, 0], [1, 1, 0]])
    d2 = IntegerMatrix.from_rows([[1, 0, 0], [-1, 0, 0], [0, 2, 2]])
    d3 = IntegerMatrix.from_rows([[0], [1], [-1]])
    remainders = []

    def recording_smith(remainder, **kwargs):
        remainders.append((remainder.rows, remainder.cols))
        return smith_normal_form(remainder, **kwargs)

    monkeypatch.setattr(matrix_module, "smith_normal_form", recording_smith)
    assert sweep_invariant_factors([d1, d2, d3]) == [[1], [1, 2], [1]]
    assert remainders == [(1, 3)]
    assert sweep_invariant_factors([]) == []
    with pytest.raises(ValueError, match="shape mismatch: matrix 1 has 2 rows, not 3"):
        sweep_invariant_factors([d1, IntegerMatrix(2, 2)])


def test_sweep_keeps_deferred_rows_at_a_non_unit_pivot():
    # m0's only low is 1 with pivot 2, so m1's row 1 is deferred; m1's own
    # pivot -2 is not a unit, and only that row brings its factor down to 1
    m0 = IntegerMatrix.from_rows([[1, 2]])
    m1 = IntegerMatrix.from_rows([[-2], [1]])
    assert m0.matmul(m1).is_zero()
    assert sweep_invariant_factors([m0, m1]) == [[1], [1]]


@pytest.mark.parametrize("seed", range(40))
def test_sweep_on_random_zero_product_pairs(seed):
    # B = (saturated kernel of A) @ (random mix), so A @ B = 0 exactly and
    # clearing applies; every factor list must match the oracles
    rng = random.Random(5000 + seed)
    a = random_matrix(rng, max_side=7, spread=3)
    kernel = IntegerMatrix.from_rows(oracles.saturated_kernel_basis(raw_rows(a), a.cols))
    width = rng.randint(1, 6)
    mix = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(kernel.cols)]
    b = kernel.matmul(IntegerMatrix.from_rows(mix, cols=width))
    assert b.rows == a.cols and a.matmul(b).is_zero()
    swept = sweep_invariant_factors([a, b])
    for m, factors in zip((a, b), swept):
        assert factors == oracles.smith_diag_by_elimination(raw_rows(m)) == invariant_factors(m)
        assert len(factors) == oracles.rank_over_q(raw_rows(m))


@pytest.mark.parametrize("seed", range(20))
def test_reduce_columns_changes_no_input_dict(seed):
    # copy-on-write: the dicts handed in keep their entries, Euclid swaps
    # included, and the results are read off the lists
    rng = random.Random(7000 + seed)
    m = random_matrix(rng, max_side=7, spread=4)
    cols = [sparse_column(m.column(j)) for j in range(m.cols)]
    records = [{k: 1} for k in range(m.cols)]
    given_cols, given_records = list(cols), list(records)
    before = [dict(c) for c in cols]
    pivots, zeros = reduce_columns(cols, records)
    assert given_cols == before and given_records == [{k: 1} for k in range(m.cols)]
    for k in zeros:
        assert not cols[k]
        assert not any(m.mul_vector([records[k].get(j, 0) for j in range(m.cols)]))
    assert len(pivots) + len(zeros) == m.cols
    assert len(pivots) == oracles.rank_over_q(raw_rows(m))


# -- kernels, solving, lattices ---------------------------------------------------


@pytest.mark.parametrize("seed", range(40))
def test_kernel_basis_properties(seed):
    # the kernel oracle that the lattice tests rest on, against the package
    rng = random.Random(3000 + seed)
    m = random_matrix(rng)
    k = IntegerMatrix.from_rows(oracles.saturated_kernel_basis(raw_rows(m), m.cols))
    assert k.rows == m.cols
    assert k.cols == m.cols - len(invariant_factors(m))
    assert m.matmul(k).is_zero()
    # basis columns are independent and the lattice is saturated
    if k.cols:
        assert invariant_factors(k) == [1] * k.cols


@pytest.mark.parametrize("seed", range(40))
def test_solve_columns_roundtrip(seed):
    # lattice membership: coordinates over the pivots rebuild each column of m·x
    rng = random.Random(4000 + seed)
    m = random_matrix(rng)
    x = IntegerMatrix.from_rows(
        [[rng.randint(-4, 4) for _ in range(3)] for _ in range(m.cols)], cols=3
    )
    target = m.matmul(x)
    basis = pivot_basis(m)
    for j in range(target.cols):
        coords = echelon_coordinates(basis, sparse_column(target.column(j)))
        assert coords is not None
        rebuilt = [sum(c * basis[low].get(i, 0) for low, c in coords.items()) for i in range(m.rows)]
        assert rebuilt == target.column(j)


def test_solve_columns_unsolvable():
    m = IntegerMatrix.from_rows([[2, 0], [0, 4]])
    basis = pivot_basis(m)
    assert echelon_coordinates(basis, sparse_column([1, 0])) is None
    assert echelon_coordinates(basis, sparse_column([2, 2])) is None
    assert echelon_coordinates(basis, sparse_column([2, 4])) == {0: 1, 1: 1}
    assert not oracles.lattice_contains(raw_rows(m), [[1, 0]])
    assert oracles.lattice_contains(raw_rows(m), [[4, -8]])


def lattice_test_matrix(seed: int) -> IntegerMatrix:
    """Seeds 0-29 are generic; 30-39 get zero columns and rows; 40-49 are
    wide k x 6k sparse +-1 matrices shaped like B's coordinates over K."""
    rng = random.Random(5000 + seed)
    if seed < 30:
        return random_matrix(rng)
    if seed < 40:
        m = random_matrix(rng)
        rows, ncols = raw_rows(m), m.cols
        for j in rng.sample(range(ncols), ncols // 2):
            for row in rows:
                row[j] = 0
        for row in rng.sample(rows, len(rows) // 2):
            row[:] = [0] * ncols
        return IntegerMatrix.from_rows(rows, cols=ncols)
    k = rng.randint(1, 8)
    return IntegerMatrix.from_rows(
        [[rng.choice([1, -1]) if rng.random() < 0.15 else 0 for _ in range(6 * k)]
         for _ in range(k)],
        cols=6 * k,
    )


@pytest.mark.parametrize("seed", range(50))
def test_column_lattice_basis_spans_the_same_lattice(seed):
    m = lattice_test_matrix(seed)
    pivots = pivot_basis(m)
    assert all(max(col) == low for low, col in pivots.items())  # column echelon
    basis = IntegerMatrix.from_rows(
        [[col.get(i, 0) for col in pivots.values()] for i in range(m.rows)], cols=len(pivots)
    )
    assert basis.cols == len(invariant_factors(m))
    assert oracles.same_lattice(raw_rows(basis), raw_rows(m))
    for j in range(m.cols):
        assert oracles.lattice_contains(raw_rows(basis), [m.column(j)])
    for j in range(basis.cols):
        assert oracles.lattice_contains(raw_rows(m), [basis.column(j)])
    # the same by package-free oracles: a lattice L contains L' iff [L | L'] has
    # the invariant factors of L, so equal diagonals mean inclusion both ways
    def factors(rows):
        return [d for d in oracles.smith_diag_by_elimination(rows) if d]

    whole = factors(raw_rows(m))
    assert factors(raw_rows(basis)) == whole
    assert factors([r + b for r, b in zip(raw_rows(m), raw_rows(basis))]) == whole
    # and the basis columns are independent
    assert basis.cols == len(whole)


@pytest.mark.parametrize("seed", range(20))
def test_same_column_lattice_distinguishes(seed):
    rng = random.Random(6000 + seed)
    m = random_matrix(rng, max_side=4)
    assert oracles.same_lattice(raw_rows(m), raw_rows(m))
    doubled = IntegerMatrix.from_rows([[2 * x for x in row] for row in raw_rows(m)], cols=m.cols)
    if not m.is_zero():
        assert not oracles.same_lattice(raw_rows(m), raw_rows(doubled))
        assert oracles.lattice_contains(raw_rows(m), [doubled.column(0)])


# -- the product against an independent triple loop --------------------------------


def triple_loop_product(a: list[list[int]], b: list[list[int]], inner: int, cols: int) -> list[list[int]]:
    out = []
    for i in range(len(a)):
        row = []
        for j in range(cols):
            s = 0
            for t in range(inner):
                s += a[i][t] * b[t][j]
            row.append(s)
        out.append(row)
    return out


def product_factors(seed: int) -> tuple[list[list[int]], list[list[int]], int, int, int]:
    """Factor pair (a, b, rows, inner, cols) of a kind picked by seed % 8."""
    rng = random.Random(seed)
    kind = seed % 8
    r, k, m = (rng.randint(1, 7) for _ in range(3))
    if kind == 0:  # empty shapes: 0 x k . k x m, r x 0 . 0 x m, r x k . k x 0
        r, k, m = [(0, k, m), (r, 0, m), (r, k, 0)][seed // 8 % 3]

    def fill(nrows: int, ncols: int, entry) -> list[list[int]]:
        return [[entry() for _ in range(ncols)] for _ in range(nrows)]

    if kind in (0, 1):  # all-zero factor(s)
        zero_side = seed // 8 % 3
        a = fill(r, k, (lambda: 0) if zero_side != 1 else (lambda: rng.randint(-4, 4)))
        b = fill(k, m, (lambda: 0) if zero_side != 0 else (lambda: rng.randint(-4, 4)))
    elif kind == 2:  # zero rows and zero columns inside nonzero factors
        a = fill(r, k, lambda: rng.randint(-4, 4))
        b = fill(k, m, lambda: rng.randint(-4, 4))
        a[rng.randrange(r)] = [0] * k
        b[rng.randrange(k)] = [0] * m
        for mat, width in ((a, k), (b, m)):
            j = rng.randrange(width)
            for row in mat:
                row[j] = 0
    elif kind == 3:  # Moore-like: each column holds at most 3 entries of +-1
        a, b = fill(r, k, lambda: 0), fill(k, m, lambda: 0)
        for mat, nrows, ncols in ((a, r, k), (b, k, m)):
            for j in range(ncols):
                for i in rng.sample(range(nrows), min(nrows, rng.randint(0, 3))):
                    mat[i][j] = rng.choice((1, -1))
    elif kind == 4:  # fully dense, no zero entry
        a = fill(r, k, lambda: rng.choice((-1, 1)) * rng.randint(1, 9))
        b = fill(k, m, lambda: rng.choice((-1, 1)) * rng.randint(1, 9))
    elif kind == 5:  # negative entries only
        a = fill(r, k, lambda: -rng.randint(1, 50))
        b = fill(k, m, lambda: -rng.randint(0, 50))
    elif kind == 6:  # entries above 2**64, both signs
        big = lambda: rng.choice((-1, 1)) * rng.randint(2**64 + 1, 2**90)
        a = fill(r, k, big)
        b = fill(k, m, big)
    else:  # sparse with huge entries
        a = fill(r, k, lambda: rng.choice((0, 0, 0, 2**70 + rng.randint(0, 9), -3)))
        b = fill(k, m, lambda: rng.choice((0, 0, -(2**65), 1)))
    return a, b, r, k, m


@pytest.mark.parametrize("seed", range(200))
def test_matmul_matches_triple_loop(seed):
    a, b, r, k, m = product_factors(seed)
    left = IntegerMatrix.from_rows(a, cols=k)
    right = IntegerMatrix.from_rows(b, cols=m)
    product = left.matmul(right)
    assert (product.rows, product.cols) == (r, m)
    assert raw_rows(product) == triple_loop_product(a, b, k, m)
    assert product.nnz == sum(x != 0 for x in product.entries)  # no zero is stored
    # operands are left as they were
    assert raw_rows(left) == a and raw_rows(right) == b


@pytest.mark.parametrize("seed", range(200))
def test_sparse_matmul_and_mod_match_dense(seed):
    # the product agrees with mul_vector, which reads the row dicts on its own
    # route: (a·b)·v = a·(b·v) and column j of a·b is a·(column j of b)
    a, b, r, k, m = product_factors(seed)
    left = IntegerMatrix.from_rows(a, cols=k)
    right = IntegerMatrix.from_rows(b, cols=m)
    product = left.matmul(right)
    rng = random.Random(seed)
    v = [rng.randint(-3, 3) for _ in range(m)]
    assert product.mul_vector(v) == left.mul_vector(right.mul_vector(v))
    assert all(product.column(j) == left.mul_vector(right.column(j)) for j in range(m))


@pytest.mark.parametrize("seed", range(20))
def test_sparse_read_interface_matches_dense(seed):
    # the row dicts read back as the dense rows they were built from
    rng = random.Random(4000 + seed)
    rows = raw_rows(random_matrix(rng))
    rows = [[x if rng.random() < 0.4 else 0 for x in row] for row in rows]
    ncols = len(rows[0]) if rows else rng.randint(0, 6)
    s = IntegerMatrix.from_rows(rows, cols=ncols)
    flat = [x for row in rows for x in row]
    assert (s.rows, s.cols) == (len(rows), ncols)
    assert s.entries == flat
    assert s.nnz == sum(x != 0 for x in flat)
    assert all(s.row(i) == rows[i] for i in range(s.rows))
    assert all(s.column(j) == [row[j] for row in rows] for j in range(s.cols))
    assert all(s[i, j] == rows[i][j] for i in range(s.rows) for j in range(s.cols))
    v = [rng.randint(-5, 5) for _ in range(s.cols)]
    assert s.mul_vector(v) == [sum(x * y for x, y in zip(row, v)) for row in rows]
    assert s.is_zero() == (not any(flat))
    assert s == IntegerMatrix(s.rows, s.cols, flat)
    assert IntegerMatrix(s.rows, s.cols).is_zero()
    assert IntegerMatrix(s.rows, s.cols) == IntegerMatrix.from_rows([[0] * s.cols] * s.rows, cols=s.cols)


def test_sparse_errors_and_equality():
    s = IntegerMatrix.from_rows([[1, 0, 2]])
    with pytest.raises(ValueError, match="shape mismatch"):
        s.matmul(s)
    with pytest.raises(ValueError, match="shape mismatch"):
        s.mul_vector([1, 2])
    with pytest.raises(IndexError):
        s[0, 3]
    with pytest.raises(IndexError, match="row -1 out of range for 2 rows"):
        IntegerMatrix.from_rows([[1, 2], [3, 4]])[-1, 0]
    with pytest.raises(IndexError, match="row 1 out of range for 1 rows"):
        s[1, 0]
    with pytest.raises(ValueError, match="negative matrix dimensions"):
        IntegerMatrix(-1, 2)
    with pytest.raises(ValueError, match=r"shape mismatch: 1x3 needs 3 entries, got 2"):
        IntegerMatrix(1, 3, [1, 2])
    # equality is structural: shape and stored entries
    assert s == IntegerMatrix(1, 3, [1, 0, 2])
    assert s != IntegerMatrix.from_rows([[1, 0, 3]])
    assert s != IntegerMatrix.from_rows([[1, 0, 2, 0]])
    assert IntegerMatrix(0, 2) != IntegerMatrix(0, 3)
    assert s != [[1, 0, 2]]
    assert repr(s) == "IntegerMatrix(1x3, nnz=2)"


# -- arithmetic and errors ------------------------------------------------------------


def test_basic_arithmetic_identities():
    rng = random.Random(7)
    a = random_matrix(rng, max_side=5)
    b = IntegerMatrix.from_rows(
        [[rng.randint(-5, 5) for _ in range(a.cols)] for _ in range(a.rows)], cols=a.cols
    )
    v = [rng.randint(-5, 5) for _ in range(a.cols)]
    assert a.mul_vector(v) == [sum(a[i, j] * v[j] for j in range(a.cols)) for i in range(a.rows)]
    assert IntegerMatrix(a.rows, a.cols, b.entries) == b
    assert b.entries == [x for row in raw_rows(b) for x in row]
    assert a.matmul(identity(a.cols)) == a
    assert a.matmul(IntegerMatrix(a.cols, 1, v)).column(0) == a.mul_vector(v)


def test_shape_mismatch_errors():
    a = IntegerMatrix.from_rows([[1, 2]])
    b = IntegerMatrix.from_rows([[1], [2], [3]])
    with pytest.raises(ValueError, match="shape mismatch"):
        a.matmul(b)
    with pytest.raises(ValueError, match="shape mismatch"):
        IntegerMatrix.from_rows([[1, 2], [3]])
    # a stated width must match the rows' width; it sets the width only of no rows
    with pytest.raises(ValueError, match=r"shape mismatch: rows of width 2, cols=5"):
        IntegerMatrix.from_rows([[1, 2]], cols=5)
    assert IntegerMatrix.from_rows([[1, 2]], cols=2) == a
    assert (IntegerMatrix.from_rows([], cols=5).rows, IntegerMatrix.from_rows([], cols=5).cols) == (0, 5)
    with pytest.raises(ValueError, match="shape mismatch"):
        a.mul_vector([1, 2, 3])
