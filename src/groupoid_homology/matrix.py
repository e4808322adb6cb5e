"""Exact integer matrices and Smith normal form.

Everything here is plain unbounded-integer arithmetic: no floats, no
machine-word moduli.  There is one matrix type: `IntegerMatrix` keeps one
{column: value} dict per row, with no zero stored, for chain-complex
boundaries, transforms and homomorphisms alike, and its `matmul` costs
O(nonzero pairs) multiply-adds.  `sweep_invariant_factors` factors a chain
of matrices with zero products in one row reduction of those row dicts with
clearing (its docstring gives the pivot rule, the Euclid step, the clearing
condition and the Schur remainder), and reads only the diagonal of
`smith_normal_form` on the remainder's row dicts: the one pivot loop, on
private copies of the row dicts, which diagonalizes without forcing a
divisibility chain and tracks U and U⁻¹ only when asked (by
`HomologyResult`, whose presentations stay diagonal).  `_normalize_torsion`
is the one chain normal form, by gcds and lcms: the sweep applies it to the
remainder's diagonal, and `abelian.FinAbGroup` to every group.
`reduce_columns` is the one integer column echelon (Euclid at equal lows,
optionally recording the column operations, copy-on-write): its pivots are
a basis of the lattice the columns generate, and `echelon_coordinates`
back-substitutes a vector over them, which decides lattice membership.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import compress
from typing import Container, Iterable, Sequence


class IntegerMatrix:
    """A rows x cols matrix of unbounded integers, one {column: value} dict per row.

    Zeros are never stored, so a Moore boundary costs at most n+1 entries per
    column, and `nnz`, `is_zero` and `==` read the dicts alone; `row` and
    `column` return dense lists.  `matmul` costs O(nonzero pairs)
    multiply-adds.  Treated as immutable by convention: no public method
    mutates `self`.

    >>> m = IntegerMatrix.from_rows([[1, 0, -1], [0, 0, 2]])
    >>> m.nnz, m[1, 2], m.row(0), m.column(2)
    (3, 2, [1, 0, -1], [-1, 2])
    >>> m.matmul(IntegerMatrix(3, 1, [1, 0, 1])).column(0)
    [0, 2]
    """

    __slots__ = ("rows", "cols", "_dicts")

    def __init__(self, rows: int, cols: int, entries: Sequence[int] | None = None):
        """The matrix of the row-major `entries`, or the zero matrix."""
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        if entries is None:
            self._dicts: list[dict[int, int]] = [{} for _ in range(rows)]
        else:
            entries = list(entries)
            if len(entries) != rows * cols:
                raise ValueError(
                    f"shape mismatch: {rows}x{cols} needs {rows * cols} entries, got {len(entries)}"
                )
            self._dicts = [_nonzero(entries[i * cols:(i + 1) * cols]) for i in range(rows)]

    @classmethod
    def from_rows(cls, rows_list: Sequence[Sequence[int]], cols: int | None = None) -> "IntegerMatrix":
        """The matrix with the given dense rows; `cols` sets the width when there are none.

        >>> IntegerMatrix.from_rows([[1, 2]], cols=5)
        Traceback (most recent call last):
            ...
        ValueError: shape mismatch: rows of width 2, cols=5
        """
        rows_list = [list(r) for r in rows_list]
        if rows_list:
            c = len(rows_list[0])
            if any(len(r) != c for r in rows_list):
                raise ValueError("shape mismatch: ragged rows")
            if cols is not None and cols != c:
                raise ValueError(f"shape mismatch: rows of width {c}, cols={cols}")
        else:
            c = 0 if cols is None else cols
        return cls._wrap(len(rows_list), c, [_nonzero(r) for r in rows_list])

    @classmethod
    def _wrap(cls, rows: int, cols: int, row_dicts: list[dict[int, int]]) -> "IntegerMatrix":
        """Adopt freshly built row dicts that hold no zero, without a copy or a check."""
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m._dicts = row_dicts
        return m

    # -- reading -----------------------------------------------------------

    @property
    def nnz(self) -> int:
        """The number of stored (nonzero) entries."""
        return sum(map(len, self._dicts))

    @property
    def entries(self) -> list[int]:
        """Entries in row-major order (the serialization format)."""
        return [x for i in range(self.rows) for x in self.row(i)]

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} out of range for {self.rows} rows")
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range for {self.cols} columns")
        return self._dicts[i].get(j, 0)

    def row(self, i: int) -> list[int]:
        out = [0] * self.cols
        for j, v in self._dicts[i].items():
            out[j] = v
        return out

    def column(self, j: int) -> list[int]:
        return [r.get(j, 0) for r in self._dicts]

    def is_zero(self) -> bool:
        return not any(self._dicts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self._dicts == other._dicts

    __hash__ = None  # mutable internals; equality is structural

    def __repr__(self) -> str:
        return f"IntegerMatrix({self.rows}x{self.cols}, nnz={self.nnz})"

    # -- products ----------------------------------------------------------

    def mul_vector(self, v: Sequence[int]) -> list[int]:
        if len(v) != self.cols:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} applied to length-{len(v)} vector")
        return [sum(a * v[j] for j, a in r.items()) for r in self._dicts]

    def matmul(self, other: "IntegerMatrix") -> "IntegerMatrix":
        """self @ other in O(nonzero pairs) multiply-adds (Gustavson, row by row).

        >>> IntegerMatrix.from_rows([[1, 0, 2], [0, 0, 0]]).matmul(
        ...     IntegerMatrix.from_rows([[3, 0], [5, 0], [-1, 0]])).entries
        [1, 0, 0, 0]
        """
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        brows = other._dicts
        out = []
        for r in self._dicts:
            acc: dict[int, int] = {}
            for k, a in r.items():
                for j, b in brows[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append({j: v for j, v in acc.items() if v})
        return IntegerMatrix._wrap(self.rows, other.cols, out)


def _nonzero(row: Sequence[int]) -> dict[int, int]:
    """The {column: value} dict of a dense row, without its zeros."""
    return dict(zip(compress(range(len(row)), row), compress(row, row)))


def smith_normal_form(
    m: IntegerMatrix, *, rows: bool = False
) -> tuple[list[int], IntegerMatrix | None, IntegerMatrix | None]:
    """(diag, U, U⁻¹): a diagonal form U·M·V by smallest-|pivot| selection.

    `diag` is the diagonal of U·M·V, length min(m.rows, m.cols), nonzero
    entries first and zeros trailing; it need not be a divisibility chain
    (`_normalize_torsion` of its entries >= 2 gives the invariant factors).
    U and U⁻¹ are None unless `rows` is true; V is never kept.  The loop runs
    on private copies of the row dicts, so zeros cost nothing and rows that
    share no column stay apart.  Step t moves a smallest |entry| (a +-1
    first, ties to the first row and column) to (t, t), and runs Euclid on
    its column by row operations and on its row by column operations.
    Column operations come only once column t is clear, so they change row t
    alone.

    >>> smith_normal_form(IntegerMatrix.from_rows([[2, 0], [0, 3]]))[0]  # Z/2 ⊕ Z/3 stays apart
    [2, 3]
    """
    nrows, n = m.rows, min(m.rows, m.cols)
    a = [dict(d) for d in m._dicts]
    # U's rows and the columns of U⁻¹ (as the rows of w) change along with a's rows
    u = [{i: 1} for i in range(nrows)] if rows else None
    w = [{i: 1} for i in range(nrows)] if rows else None
    mats = (a, u, w) if rows else (a,)

    def row_sub(i: int, p: int, q: int) -> None:  # row i -= q * row p
        _sub(a[i], a[p], q)
        if rows:
            _sub(u[i], u[p], q)
            _sub(w[p], w[i], -q)

    def row_swap(i: int, p: int) -> None:
        for x in mats:
            x[i], x[p] = x[p], x[i]

    def col_swap(t: int, j: int) -> None:  # rows above t hold neither column
        for r in a[t:]:
            x, y = r.pop(t, 0), r.pop(j, 0)
            if x:
                r[j] = x
            if y:
                r[t] = y

    diag = []
    for t in range(n):
        # rows t.. hold no entry left of column t
        best, pi = 0, None
        for i in range(t, nrows):
            if a[i]:
                v = min(map(abs, a[i].values()))
                if pi is None or v < best:
                    best, pi = v, i
                    if v == 1:
                        break
        if pi is None:
            break
        row_swap(t, pi)
        col_swap(t, min(j for j, v in a[t].items() if v == best or v == -best))
        while True:
            p = a[t][t]
            for i in range(t + 1, nrows):
                x = a[i].get(t)
                if x:
                    q = x // p
                    if q:
                        row_sub(i, t, q)
                    if t in a[i]:  # nonzero remainder beats the pivot
                        row_swap(t, i)
                        break
            else:  # column t is clear: Euclid on row t
                if p in (1, -1):  # a unit clears its row and divides every entry
                    a[t] = {t: p}
                    break
                r = a[t]
                for j in sorted(r):
                    if j != t:
                        if r[j] % p:
                            r[j] %= p
                            col_swap(t, j)
                            break
                        del r[j]
                else:  # row t is clear too
                    break
        if a[t][t] < 0:
            for x in mats:
                x[t] = {k: -v for k, v in x[t].items()}
        diag.append(a[t][t])
    diag += [0] * (n - len(diag))
    if not rows:
        return diag, None, None
    uinv: list[dict[int, int]] = [{} for _ in range(nrows)]
    for i, col in enumerate(w):
        for k, v in col.items():
            uinv[k][i] = v
    return diag, IntegerMatrix._wrap(nrows, nrows, u), IntegerMatrix._wrap(nrows, nrows, uinv)


def _normalize_torsion(orders: Iterable[int]) -> tuple[int, ...]:
    """Invariant factors of the direct sum of Z/c over the given orders (each >= 2).

    The one divisibility-chain normal form: `_reduce` applies it to the
    diagonal of `smith_normal_form`, and `abelian.FinAbGroup` to every group.
    By Z/a ⊕ Z/b ≅ Z/gcd(a, b) ⊕ Z/lcm(a, b), with no factoring: each order
    skips the slots of a largest-first chain that it divides (by bisection)
    and goes in above a slot that divides it; any other slot takes the lcm
    and hands down the gcd, a proper divisor.

    >>> _normalize_torsion([2, 3]), _normalize_torsion([4, 6]), _normalize_torsion([])
    ((6,), (2, 12), ())
    """
    chain: list[int] = []  # each entry divides the one before
    for c in orders:
        if c < 2:
            raise ValueError("torsion coefficients must be >= 2")
        i = 0
        while c > 1:
            i = bisect_left(chain, True, i, key=lambda d: d % c != 0)
            if i == len(chain) or c % chain[i] == 0:
                chain.insert(i, c)
                break
            g = math.gcd(chain[i], c)
            chain[i], c = chain[i] // g * c, g
            i += 1
    chain.reverse()  # ascending divisibility chain
    return tuple(chain)


def invariant_factors(m: IntegerMatrix) -> list[int]:
    """Nonzero diagonal of the Smith form (ascending divisibility chain).

    The one-matrix case of `sweep_invariant_factors`, which gives the pivot
    rule.  `len(result)` is the rank of `m`.

    >>> invariant_factors(IntegerMatrix.from_rows([[2, 4], [6, 8]]))
    [2, 4]
    >>> invariant_factors(IntegerMatrix.from_rows([[1, 0], [0, 0]]))
    [1]
    >>> invariant_factors(IntegerMatrix.from_rows([[2, 3], [1, 1]]))  # Euclid at low 1
    [1, 1]
    """
    return sweep_invariant_factors([m])[0]


def sweep_invariant_factors(ms: Sequence[IntegerMatrix]) -> list[list[int]]:
    """`invariant_factors` of each of m_0, m_1, ..., whose products m_k @ m_{k+1} are 0.

    One row reduction in cochain order: `reduce_columns` on the sparse row
    dicts (copy-on-write), read as columns, so a row's low is its largest
    column index and equal non-unit lows run Euclid.  Copies of the non-unit
    rows are then reduced by the unit-low rows A on A's lows, largest first:
    [[A, B], [0, C]] with A unimodular is equivalent to I ⊕ C, and C's row
    dicts go to `smith_normal_form` as they are, which takes a +-1 first;
    `_normalize_torsion` turns its diagonal into an ascending chain.

    Clearing: a reduced row R = x·m_k with unit low j may replace row j of
    m_{k+1} by R·m_{k+1} = 0, a row operation unitriangular in the order of
    the lows, so the rows of m_{k+1} at m_k's unit lows are skipped.  It is
    valid only because the product is exactly zero: the caller vouches for
    it.  At a non-unit low a the operation has determinant a, so that row
    stays; a times it lies in the span of the others, so it skips the echelon
    and goes to the Schur step, or nowhere when every pivot is a unit (`_reduce`).

    >>> d1 = IntegerMatrix.from_rows([[-1, -1, 0], [1, 1, 0]])
    >>> sweep_invariant_factors([d1, IntegerMatrix.from_rows([[2], [-2], [0]])])
    [[1], [2]]
    """
    out: list[list[int]] = []
    units, others = set(), set()  # the previous matrix's unit and non-unit lows
    for k, m in enumerate(ms):
        if k and m.rows != ms[k - 1].cols:
            raise ValueError(f"shape mismatch: matrix {k} has {m.rows} rows, not {ms[k - 1].cols}")
        units, others, factors = _reduce(m, units, others)
        out.append(factors)
    return out


def _reduce(m: IntegerMatrix, cleared: set[int], deferred: set[int]) -> tuple[set, set, list[int]]:
    """Unit lows, non-unit lows and invariant factors of m; `deferred` rows go to the Schur step.

    m's row dicts are reduced uncopied, and the Schur remainder keeps m's
    column indices and width.  Its diagonal form need not be a chain, so its
    entries >= 2 go through `_normalize_torsion`, padded in front with ones
    to the rank: a diagonal [2, 3] gives [1, 6].  With every pivot a unit,
    the deferred rows add nothing: a skipped row j is, up to a factor, a
    Z-combination of rows below j (m_{k-1}·m_k = 0), so by induction on j
    every row of m lies in the Q-span V of the rows not skipped; unit pivots
    span the saturated V ∩ Zⁿ, which so holds every row of m, and the
    factors are 1 × rank.
    """
    skip = cleared | deferred
    rows = list(m._dicts)
    pivots, _ = reduce_columns(rows, skip=skip)
    units = {j: rows[k] for j, k in pivots.items() if rows[k][j] in (1, -1)}
    factors = [1] * len(units)
    rest = [dict(rows[k]) for j, k in pivots.items() if j not in units]
    if rest:
        rest += [dict(m._dicts[i]) for i in sorted(deferred - cleared) if m._dicts[i]]
        # a unit row only holds columns up to its low, so largest first clears them all
        order = sorted(units, reverse=True)
        for r in rest:
            for j in order:
                if j in r:
                    p = units[j]
                    _sub(r, p, r[j] * p[j])
        diag = [d for d in smith_normal_form(IntegerMatrix._wrap(len(rest), m.cols, rest))[0] if d]
        torsion = _normalize_torsion(d for d in diag if d > 1)
        factors += [1] * (len(diag) - len(torsion)) + list(torsion)
    return set(units), pivots.keys() - units.keys(), factors


def _sub(r: dict[int, int], p: dict[int, int], c: int) -> None:
    """r -= c * p on sparse rows, dropping the zeros."""
    for k, v in p.items():
        x = r.get(k, 0) - c * v
        if x:
            r[k] = x
        else:
            del r[k]


def reduce_columns(
    cols: list[dict[int, int]], records: list[dict[int, int]] | None = None, skip: Container[int] = ()
) -> tuple[dict[int, int], list[int]]:
    """Integer column echelon of sparse {row: value} columns, copy-on-write.

    Returns {low: position of its pivot column} and the positions of the
    columns that became zero.  A column's low is its largest row index.  A
    column at a pivot's low p takes b - (b // p)·p: exact at a +-1 pivot,
    Euclid otherwise, where a nonzero remainder takes the low and the old
    pivot column goes on.  Every step is a unimodular column operation, done
    to `records` too: from records[k] = e_k the zero columns' records are a
    kernel basis.  Positions in `skip` are left out (the caller vouches).
    No input dict changes: cols[k] and records[k] are copied at their first change.
    """
    pivots: dict[int, int] = {}
    zeros = []
    given = list(cols)
    for k in range(len(cols)):
        if k in skip:
            continue
        c = cols[k]
        while c:
            j = max(c)
            p = pivots.get(j)
            if p is None:
                pivots[j] = k
                break
            pc = cols[p]
            f = c[j] // pc[j]
            if f:
                if c is given[k]:  # asked at every change: a Euclid swap changes k
                    cols[k] = c = dict(c)
                    if records is not None:
                        records[k] = dict(records[k])
                _sub(c, pc, f)
                if records is not None:
                    _sub(records[k], records[p], f)
            if j in c:
                pivots[j], k = k, p
                c = cols[k]
        else:
            zeros.append(k)
    return pivots, zeros


def echelon_coordinates(basis: dict[int, dict[int, int]], v: dict[int, int]) -> dict[int, int] | None:
    """Coefficients, keyed by low, of v over an echelon basis {low: column},
    by back-substitution that consumes v; None when v is not in its lattice."""
    x = {}
    while v:
        j = max(v)
        p = basis.get(j)
        if p is None:
            return None
        c, rem = divmod(v[j], p[j])
        if rem:
            return None
        _sub(v, p, c)
        x[j] = c
    return x
