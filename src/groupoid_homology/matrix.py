"""Exact integer matrices and Smith normal form.

Everything here is plain unbounded-integer arithmetic: no floats, no
machine-word moduli.  Two storages share one read interface: `IntegerMatrix`
keeps dense lists of rows for the transforms, products and lattice work, and
`SparseMatrix` keeps one {column: value} dict per row, with no zero stored,
for the chain-complex boundaries.  `sweep_invariant_factors` factors a
chain of matrices with zero products in one row reduction of those row dicts
with clearing (its docstring gives the pivot rule, the Euclid step, the
clearing condition and the Schur remainder), and hands only a small
remainder to `smith_normal_form`, the one pivot loop.  Both `matmul`s cost
O(nonzero pairs) multiply-adds.  `reduce_columns` is the one integer column
echelon (Euclid at equal lows, optionally recording the column operations);
`column_lattice_basis` shrinks a wide generating set to its pivots, and
`echelon_coordinates` back-substitutes a vector over such a basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Container, Sequence


class IntegerMatrix:
    """A rows x cols matrix of unbounded integers.

    Treated as immutable by convention: none of the public methods mutate
    `self`, and hot internal algorithms work on copies of the row lists.
    """

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows: int, cols: int, entries: Sequence[int] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        if entries is None:
            self._rows = [[0] * cols for _ in range(rows)]
        else:
            entries = list(entries)
            if len(entries) != rows * cols:
                raise ValueError(
                    f"shape mismatch: {rows}x{cols} needs {rows * cols} entries, got {len(entries)}"
                )
            self._rows = [entries[i * cols:(i + 1) * cols] for i in range(rows)]

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows_list: Sequence[Sequence[int]], cols: int | None = None) -> "IntegerMatrix":
        rows_list = [list(r) for r in rows_list]
        if rows_list:
            c = len(rows_list[0])
            if any(len(r) != c for r in rows_list):
                raise ValueError("shape mismatch: ragged rows")
        else:
            c = 0 if cols is None else cols
        return cls._wrap(rows_list, c)

    @classmethod
    def _wrap(cls, rows_list: list[list[int]], cols: int) -> "IntegerMatrix":
        """Adopt freshly built row lists of length `cols`, without a copy or a check."""
        m = cls.__new__(cls)
        m.rows = len(rows_list)
        m.cols = cols
        m._rows = rows_list
        return m

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        m = cls(n, n)
        for i in range(n):
            m._rows[i][i] = 1
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols)

    @classmethod
    def column_vector(cls, v: Sequence[int]) -> "IntegerMatrix":
        return cls.from_rows([[x] for x in v], cols=1)

    # -- basic access ------------------------------------------------------

    @property
    def entries(self) -> list[int]:
        """Entries in row-major order (the serialization format)."""
        return [x for row in self._rows for x in row]

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self._rows[i][j]

    def row(self, i: int) -> list[int]:
        return list(self._rows[i])

    def column(self, j: int) -> list[int]:
        return [row[j] for row in self._rows]

    def is_zero(self) -> bool:
        return not any(map(any, self._rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self._rows == other._rows

    __hash__ = None  # mutable internals; equality is structural

    def __repr__(self) -> str:
        return f"IntegerMatrix({self.rows}x{self.cols})"

    def __str__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"({self.rows}x{self.cols} empty)"
        widths = [max(len(str(self._rows[i][j])) for i in range(self.rows)) for j in range(self.cols)]
        lines = []
        for row in self._rows:
            lines.append("[ " + "  ".join(str(x).rjust(w) for x, w in zip(row, widths)) + " ]")
        return "\n".join(lines)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        self._check_same_shape(other)
        return IntegerMatrix._wrap(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._rows, other._rows)], self.cols
        )

    def __sub__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        self._check_same_shape(other)
        return IntegerMatrix._wrap(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self._rows, other._rows)], self.cols
        )

    def __neg__(self) -> "IntegerMatrix":
        return IntegerMatrix._wrap([[-x for x in row] for row in self._rows], self.cols)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntegerMatrix._wrap([[x * other for x in row] for row in self._rows], self.cols)
        if isinstance(other, IntegerMatrix):
            return self.matmul(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def matmul(self, other: "IntegerMatrix") -> "IntegerMatrix":
        """self @ other in O(nonzero pairs) multiply-adds (Gustavson, row by row).

        The nonzero-column lists of `other` share one range list's ints, so
        they hold no more memory than a dense transpose would.

        >>> IntegerMatrix.from_rows([[1, 0, 2], [0, 0, 0]]).matmul(
        ...     IntegerMatrix.from_rows([[3, 0], [5, 0], [-1, 0]])).entries
        [1, 0, 0, 0]
        """
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        brows = other._rows
        cols = list(range(other.cols))
        nz = [list(compress(cols, b)) for b in brows]
        out = []
        for row in self._rows:
            acc = [0] * other.cols
            for k, a in enumerate(row):
                if a:
                    b = brows[k]
                    for j in nz[k]:
                        acc[j] += a * b[j]
            out.append(acc)
        return IntegerMatrix._wrap(out, other.cols)

    def mul_vector(self, v: Sequence[int]) -> list[int]:
        if len(v) != self.cols:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} applied to length-{len(v)} vector")
        return [sum(a * b for a, b in zip(row, v)) for row in self._rows]

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix._wrap(
            [[row[j] for row in self._rows] for j in range(self.cols)], self.rows
        )

    def mod(self, q: int) -> "IntegerMatrix":
        """Entries reduced into the canonical residues 0..q-1 (q >= 1)."""
        if q < 1:
            raise ValueError("modulus must be >= 1")
        return IntegerMatrix.from_rows([[x % q for x in row] for row in self._rows], cols=self.cols)

    # -- block assembly ----------------------------------------------------

    @staticmethod
    def hstack(blocks: Sequence["IntegerMatrix"]) -> "IntegerMatrix":
        blocks = list(blocks)
        if not blocks:
            raise ValueError("hstack of no blocks")
        r = blocks[0].rows
        if any(b.rows != r for b in blocks):
            raise ValueError("shape mismatch: hstack row counts differ")
        rows = [[x for b in blocks for x in b._rows[i]] for i in range(r)]
        return IntegerMatrix._wrap(rows, sum(b.cols for b in blocks))

    @staticmethod
    def vstack(blocks: Sequence["IntegerMatrix"]) -> "IntegerMatrix":
        blocks = list(blocks)
        if not blocks:
            raise ValueError("vstack of no blocks")
        c = blocks[0].cols
        if any(b.cols != c for b in blocks):
            raise ValueError("shape mismatch: vstack column counts differ")
        rows = [row[:] for b in blocks for row in b._rows]
        return IntegerMatrix._wrap(rows, c)

    def _check_same_shape(self, other: "IntegerMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")


class SparseMatrix:
    """A rows x cols integer matrix stored as one {column: value} dict per row.

    The storage of every chain-complex boundary.  Zeros are never stored, so a
    Moore boundary costs at most n+1 entries per column, and `is_zero`, `==`
    and `nnz` read the dicts alone.  The read side matches `IntegerMatrix`
    (`row` and `column` as dense lists, `entries`, `[i, j]`, `mul_vector`,
    `mod`, `is_zero`, `==`); `matmul` multiplies two sparse matrices in
    O(nonzero pairs), `block_diag` lays sparse blocks down the diagonal, and
    `to_dense()` hands dense arithmetic an `IntegerMatrix`.  Treated as
    immutable by convention, like `IntegerMatrix`.

    >>> s = SparseMatrix.from_dense(IntegerMatrix.from_rows([[1, 0, -1], [0, 0, 2]]))
    >>> s.nnz, s[1, 2], s.row(0), s.column(2)
    (3, 2, [1, 0, -1], [-1, 2])
    >>> s.mod(2).entries, s.mod(2).nnz
    ([1, 0, 1, 0, 0, 0], 2)
    >>> s.matmul(SparseMatrix.from_dense(IntegerMatrix.from_rows([[1], [0], [1]]))).column(0)
    [0, 2]
    >>> s.to_dense() == IntegerMatrix.from_rows([[1, 0, -1], [0, 0, 2]])
    True
    >>> SparseMatrix.block_diag([s, s]).row(3)
    [0, 0, 0, 0, 0, 2]
    """

    __slots__ = ("rows", "cols", "_dicts")

    def __init__(self, rows: int, cols: int):
        """The zero matrix."""
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        self._dicts: list[dict[int, int]] = [{} for _ in range(rows)]

    @classmethod
    def _wrap(cls, rows: int, cols: int, row_dicts: list[dict[int, int]]) -> "SparseMatrix":
        """Adopt freshly built row dicts that hold no zero, without a copy or a check."""
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m._dicts = row_dicts
        return m

    @classmethod
    def from_dense(cls, m: IntegerMatrix) -> "SparseMatrix":
        cols = range(m.cols)
        row_dicts = [dict(zip(compress(cols, r), compress(r, r))) for r in m._rows]
        return cls._wrap(m.rows, m.cols, row_dicts)

    def to_dense(self) -> IntegerMatrix:
        return IntegerMatrix._wrap([self.row(i) for i in range(self.rows)], self.cols)

    @staticmethod
    def block_diag(blocks: Sequence["SparseMatrix"]) -> "SparseMatrix":
        """The blocks down the diagonal, each row dict shifted by the columns before it."""
        row_dicts: list[dict[int, int]] = []
        cols = 0
        for b in blocks:
            row_dicts += [{cols + j: v for j, v in r.items()} for r in b._dicts]
            cols += b.cols
        return SparseMatrix._wrap(len(row_dicts), cols, row_dicts)

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
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self._dicts == other._dicts

    __hash__ = None  # mutable internals; equality is structural

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"

    def mul_vector(self, v: Sequence[int]) -> list[int]:
        if len(v) != self.cols:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} applied to length-{len(v)} vector")
        return [sum(a * v[j] for j, a in r.items()) for r in self._dicts]

    def mod(self, q: int) -> "SparseMatrix":
        """Entries reduced into the canonical residues 0..q-1 (q >= 1); zero residues dropped."""
        if q < 1:
            raise ValueError("modulus must be >= 1")
        return SparseMatrix._wrap(
            self.rows, self.cols, [{j: x for j, v in r.items() if (x := v % q)} for r in self._dicts]
        )

    def matmul(self, other: "SparseMatrix") -> "SparseMatrix":
        """self @ other in O(nonzero pairs) multiply-adds (Gustavson, row by row)."""
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
        return SparseMatrix._wrap(self.rows, other.cols, out)


@dataclass
class SmithDecomposition:
    """U * M * V = D with U, V unimodular and D diagonal.

    `diag` is the full diagonal of D (length min(rows, cols)): a divisibility
    chain d_1 | d_2 | ... with any zeros trailing.  `uinv`/`vinv` are the exact
    inverses of U/V.  Each of U, V, uinv and vinv is None unless the
    `smith_normal_form` call asked to track it.
    """

    U: IntegerMatrix | None
    D: IntegerMatrix
    V: IntegerMatrix | None
    diag: list[int]
    uinv: IntegerMatrix | None = None
    vinv: IntegerMatrix | None = None

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diag if d != 0)


def smith_normal_form(
    m: IntegerMatrix, *, transforms: Sequence[str] = ("U", "V")
) -> SmithDecomposition:
    """Smith normal form by smallest-|pivot| selection with full reduction.

    `transforms` names the fields of the result to track, out of U, V, uinv
    and vinv; the others come back None and cost nothing.  D and the diagonal
    do not depend on the choice.
    """
    wanted = set(transforms)
    if not wanted <= {"U", "V", "uinv", "vinv"}:
        raise ValueError(f"unknown Smith transforms in {sorted(wanted)}: use U, V, uinv, vinv")
    rows, cols = m.rows, m.cols

    def eye(n: int, name: str) -> list[list[int]] | None:
        return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)] if name in wanted else None

    # U⁻¹ is kept transposed, so that, like V⁻¹, it changes by row operations
    U, V, Uit, Vi = eye(rows, "U"), eye(cols, "V"), eye(rows, "uinv"), eye(cols, "vinv")
    # row operations act on [M | U] and column operations on [M ; V] in one go;
    # every loop below stays inside the rows x cols block M
    a = [row + u for row, u in zip(m._rows, U)] if U is not None else [row[:] for row in m._rows]
    a += V or []

    def row_sub(i: int, p: int, q: int) -> None:  # row i -= q * row p
        a[i] = [x - q * y for x, y in zip(a[i], a[p])]
        if Uit is not None:
            Uit[p] = [x + q * y for x, y in zip(Uit[p], Uit[i])]

    def row_swap(i: int, p: int) -> None:
        a[i], a[p] = a[p], a[i]
        if Uit is not None:
            Uit[i], Uit[p] = Uit[p], Uit[i]

    def row_neg(i: int) -> None:
        a[i] = [-x for x in a[i]]
        if Uit is not None:
            Uit[i] = [-x for x in Uit[i]]

    def col_sub(j: int, p: int, q: int) -> None:  # col j -= q * col p
        for row in a:
            row[j] -= q * row[p]
        if Vi is not None:
            Vi[p] = [x + q * y for x, y in zip(Vi[p], Vi[j])]

    def col_swap(j: int, p: int) -> None:
        for row in a:
            row[j], row[p] = row[p], row[j]
        if Vi is not None:
            Vi[j], Vi[p] = Vi[p], Vi[j]

    n = min(rows, cols)
    t = 0
    while t < n:
        # smallest nonzero absolute value in the trailing submatrix
        piv = None
        best = 0
        for i in range(t, rows):
            ri = a[i]
            for j in range(t, cols):
                v = ri[j]
                if v:
                    av = -v if v < 0 else v
                    if piv is None or av < best:
                        best = av
                        piv = (i, j)
                        if av == 1:
                            break
            if piv is not None and best == 1:
                break
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        while True:
            dirty = False
            for i in range(rows):
                if i != t and a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        row_sub(i, t, q)
                    if a[i][t]:  # nonzero remainder beats the pivot
                        row_swap(t, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(cols):
                if j != t and a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        col_sub(j, t, q)
                    if a[t][j]:
                        col_swap(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            # row t and column t are clear; enforce the divisibility chain
            p = a[t][t]
            if p in (1, -1):  # a unit divides every entry
                break
            bad = None
            for i in range(t + 1, rows):
                ri = a[i]
                for j in range(t + 1, cols):
                    if ri[j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_sub(t, bad, -1)  # pull the offending row into play
        if a[t][t] < 0:
            row_neg(t)
        t += 1

    return SmithDecomposition(
        U=None if U is None else IntegerMatrix._wrap([r[cols:] for r in a[:rows]], rows),
        D=IntegerMatrix._wrap([r[:cols] for r in a[:rows]], cols),
        V=None if V is None else IntegerMatrix._wrap(a[rows:], cols),
        diag=[a[i][i] for i in range(n)],
        uinv=None if Uit is None else IntegerMatrix._wrap(Uit, rows).transpose(),
        vinv=None if Vi is None else IntegerMatrix._wrap(Vi, cols),
    )


def invariant_factors(m: IntegerMatrix | SparseMatrix) -> list[int]:
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


def sweep_invariant_factors(ms: Sequence[IntegerMatrix | SparseMatrix]) -> list[list[int]]:
    """`invariant_factors` of each of m_0, m_1, ..., whose products m_k @ m_{k+1} are 0.

    One row reduction in cochain order: `reduce_columns` on copies of the
    sparse row dicts, read as columns, so a row's low is its largest column
    index and equal non-unit lows run Euclid.  The non-unit rows are then
    reduced by the unit-low rows A on A's lows, largest first: [[A, B], [0, C]]
    with A unimodular is equivalent to I ⊕ C.  A +-1 left in C is pivoted on
    the sparse rows too, so only the rest of C goes to `smith_normal_form`.

    Clearing: a reduced row R = x·m_k with unit low j may replace row j of
    m_{k+1} by R·m_{k+1} = 0, a row operation unitriangular in the order of
    the lows, so the rows of m_{k+1} at m_k's unit lows are skipped.  It is
    valid only because the product is exactly zero: the caller vouches for
    it.  At a non-unit low a the operation has determinant a, so that row
    stays; a times it lies in the span of the others, so it goes straight to
    the Schur step instead of walking the whole echelon.

    >>> d1 = IntegerMatrix.from_rows([[-1, -1, 0], [1, 1, 0]])
    >>> sweep_invariant_factors([d1, IntegerMatrix.from_rows([[2], [-2], [0]])])
    [[1], [2]]
    """
    out: list[list[int]] = []
    units, others = set(), set()  # the previous matrix's unit and non-unit lows
    for k, m in enumerate(ms):
        m = SparseMatrix.from_dense(m) if isinstance(m, IntegerMatrix) else m
        if k and m.rows != ms[k - 1].cols:
            raise ValueError(f"shape mismatch: matrix {k} has {m.rows} rows, not {ms[k - 1].cols}")
        units, others, factors = _reduce(m, units, others)
        out.append(factors)
    return out


def _reduce(m: SparseMatrix, cleared: set[int], deferred: set[int]) -> tuple[set, set, list[int]]:
    """Unit lows, non-unit lows and invariant factors of m; `deferred` rows go to the Schur step."""
    skip = cleared | deferred
    rows = [r if i in skip else dict(r) for i, r in enumerate(m._dicts)]
    pivots, _ = reduce_columns(rows, skip=skip)
    units = {j: rows[k] for j, k in pivots.items() if rows[k][j] in (1, -1)}
    factors = [1] * len(units)
    rest = [rows[k] for j, k in pivots.items() if j not in units]
    rest += [dict(m._dicts[i]) for i in sorted(deferred - cleared) if m._dicts[i]]
    if rest:
        # a unit row only holds columns up to its low, so largest first clears them all
        order = sorted(units, reverse=True)
        for r in rest:
            for j in order:
                if j in r:
                    p = units[j]
                    _sub(r, p, r[j] * p[j])
        while True:  # a +-1 left in the remainder is one more unit pivot, taken on the sparse rows
            hit = next(((k, j) for k, r in enumerate(rest) for j, v in r.items() if v in (1, -1)), None)
            if hit is None:
                break
            p, j = rest.pop(hit[0]), hit[1]
            for r in rest:
                if j in r:
                    _sub(r, p, r[j] * p[j])
            factors.append(1)
    if rest:
        live = sorted({j for r in rest for j in r})
        dense = IntegerMatrix._wrap([[r.get(j, 0) for j in live] for r in rest], len(live))
        factors += [d for d in smith_normal_form(dense, transforms=()).diag if d]
    return set(units), pivots.keys() - units.keys(), factors


def _sub(r: dict[int, int], p: dict[int, int], c: int) -> None:
    """r -= c * p on sparse rows, dropping the zeros."""
    for k, v in p.items():
        x = r.get(k, 0) - c * v
        if x:
            r[k] = x
        else:
            del r[k]


def rank(m: IntegerMatrix | SparseMatrix) -> int:
    return len(invariant_factors(m))


def solve_columns(b: IntegerMatrix, t: IntegerMatrix) -> IntegerMatrix | None:
    """Exact X with b @ X = t, or None when no integer solution exists."""
    if b.rows != t.rows:
        raise ValueError(f"shape mismatch: {b.rows}x{b.cols} vs target {t.rows}x{t.cols}")
    snf = smith_normal_form(b)
    s = snf.U.matmul(t)
    r = snf.rank
    if any(any(row) for row in s._rows[r:]):
        return None
    y = [[0] * t.cols for _ in range(b.cols)]
    for i, d in enumerate(snf.diag[:r]):
        for j, x in enumerate(s._rows[i]):
            q, rem = divmod(x, d)
            if rem:
                return None
            y[i][j] = q
    return snf.V.matmul(IntegerMatrix._wrap(y, t.cols))


def column_lattice_basis(m: IntegerMatrix) -> IntegerMatrix:
    """A basis of the lattice generated by m's columns: `reduce_columns`'s pivots, by low.

    >>> column_lattice_basis(IntegerMatrix.from_rows([[4, 6, 0], [1, 0, 0]])).entries
    [6, 4, 0, 1]
    """
    cols = [{i: row[j] for i, row in enumerate(m._rows) if row[j]} for j in range(m.cols)]
    pivots, _ = reduce_columns(cols)
    basis = [cols[pivots[low]] for low in sorted(pivots)]
    return IntegerMatrix._wrap([[c.get(i, 0) for c in basis] for i in range(m.rows)], len(basis))


def reduce_columns(
    cols: list[dict[int, int]], records: list[dict[int, int]] | None = None, skip: Container[int] = ()
) -> tuple[dict[int, int], list[int]]:
    """Integer column echelon of sparse {row: value} columns, in place.

    Returns {low: position of its pivot column} and the positions of the
    columns that became zero.  A column's low is its largest row index.  A
    column at a pivot's low p takes b - (b // p)·p: exact at a +-1 pivot,
    Euclid otherwise, where a nonzero remainder takes the low and the old
    pivot column goes on.  Every step is a unimodular column operation, done
    to `records` too: from records[k] = e_k the zero columns' records are a
    kernel basis.  Positions in `skip` are left out (the caller vouches).
    """
    pivots: dict[int, int] = {}
    zeros = []
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
