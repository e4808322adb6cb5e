"""Independent verification oracles.

Everything here is deliberately redundant with the package under test and
implemented by different methods: determinants by fraction-free elimination,
invariant factors by minor gcds or naive elimination, lattice membership and
saturated kernels through a row-tracked Smith form, mod-q homology by
exhaustive enumeration of chains, exactness by enumerating finite groups
element by element, Moore boundaries from plain tuples whose faces are built
by composing arrows, the Mayer–Vietoris maps as dense matrices from position
lists, and cyclic-group homology by its closed form.  Tests
compare package output against these, never the package against itself.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product


# -- determinants and minors -------------------------------------------------


def det_bareiss(rows: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free Gaussian elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    assert all(len(r) == n for r in m), "determinant needs a square matrix"
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def smith_diag_by_minors(rows: list[list[int]]) -> list[int]:
    """Invariant factors from determinantal divisors: d_k = gcd(k-minors)/gcd((k-1)-minors).

    Exponential in matrix size; intended for matrices up to about 7x7.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    out = []
    prev_gcd = 1
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for rsel in combinations(range(nrows), k):
            for csel in combinations(range(ncols), k):
                minor = det_bareiss([[rows[i][j] for j in csel] for i in rsel])
                g = math.gcd(g, minor)
        if g == 0:
            break
        out.append(g // prev_gcd)
        prev_gcd = g
    return out


def rank_over_q(rows: list[list[int]]) -> int:
    """Rank over the rationals by Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for j in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][j]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][j]:
                f = m[i][j] / m[rank][j]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def smith_diag_by_elimination(rows: list[list[int]]) -> list[int]:
    """Invariant factors by naive textbook elimination (no transform tracking)."""
    m = [list(r) for r in rows]
    nrows, ncols = len(m), (len(m[0]) if m else 0)
    diag = []
    top = 0
    while True:
        pivot = None
        best = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < best):
                    best = abs(m[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        m[top], m[pi] = m[pi], m[top]
        for row in m:
            row[top], row[pj] = row[pj], row[top]
        while True:
            p = m[top][top]
            dirty = False
            for i in range(top + 1, nrows):
                q = m[i][top] // p
                if q:
                    for j in range(top, ncols):
                        m[i][j] -= q * m[top][j]
                if m[i][top] != 0:
                    dirty = True
            for j in range(top + 1, ncols):
                q = m[top][j] // p
                if q:
                    for i in range(top, nrows):
                        m[i][j] -= q * m[i][top]
                if m[top][j] != 0:
                    dirty = True
            if dirty:
                # a smaller remainder appeared somewhere in the cross; re-pivot
                for i in range(top, nrows):
                    for j in range(top, ncols):
                        if m[i][j] != 0 and abs(m[i][j]) < abs(m[top][top]):
                            m[top], m[i] = m[i], m[top]
                            for row in m:
                                row[top], row[j] = row[j], row[top]
                continue
            break
        diag.append(abs(m[top][top]))
        top += 1
        if top >= nrows or top >= ncols:
            break
    # enforce the divisibility chain by pairwise gcd/lcm exchanges
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a != 0:
                g = math.gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
    return diag


def smith_with_row_transform(rows: list[list[int]]):
    """(diag, U, Uinv) with U @ M @ V = diag(...) for some unimodular V.

    Tracks only the row transform and its inverse: that is what element
    enumeration of a presented group needs.
    """
    m = [list(r) for r in rows]
    nrows, ncols = len(m), (len(m[0]) if m else 0)
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    uinv = [[int(i == j) for j in range(nrows)] for i in range(nrows)]

    def row_swap(a, b):
        m[a], m[b] = m[b], m[a]
        u[a], u[b] = u[b], u[a]
        for k in range(nrows):
            uinv[k][a], uinv[k][b] = uinv[k][b], uinv[k][a]

    def row_sub(i, p, q):  # row i -= q * row p
        for j in range(ncols):
            m[i][j] -= q * m[p][j]
        for j in range(nrows):
            u[i][j] -= q * u[p][j]
        for k in range(nrows):
            uinv[k][p] += q * uinv[k][i]

    def row_neg(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]
        for k in range(nrows):
            uinv[k][i] = -uinv[k][i]

    def col_swap(a, b):
        for row in m:
            row[a], row[b] = row[b], row[a]

    def col_sub(j, p, q):  # col j -= q * col p
        for row in m:
            row[j] -= q * row[p]

    top = 0
    while True:
        pivot = None
        best = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < best):
                    best = abs(m[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        while True:
            pi, pj = pivot
            if pi != top:
                row_swap(top, pi)
            if pj != top:
                col_swap(top, pj)
            if m[top][top] < 0:
                row_neg(top)
            done = True
            for i in range(top + 1, nrows):
                q = m[i][top] // m[top][top]
                if q:
                    row_sub(i, top, q)
                if m[i][top] != 0:
                    done = False
            for j in range(top + 1, ncols):
                q = m[top][j] // m[top][top]
                if q:
                    col_sub(j, top, q)
                if m[top][j] != 0:
                    done = False
            if done:
                break
            pivot = (top, top)
            best = abs(m[top][top])
            for i in range(top, nrows):
                for j in range(top, ncols):
                    if m[i][j] != 0 and abs(m[i][j]) < best:
                        best = abs(m[i][j])
                        pivot = (i, j)
        top += 1
        if top >= nrows or top >= ncols:
            break
    # divisibility fixup: fold each bad pair back through elimination
    while True:
        bad = None
        for i in range(top - 1):
            if m[i][i] != 0 and m[i + 1][i + 1] % m[i][i] != 0:
                bad = i
                break
        if bad is None:
            break
        # move the offending lower entry into the pivot's cross and re-reduce
        col_sub(bad, bad + 1, -1)  # col bad += col bad+1, creates entry below pivot
        i = bad
        while True:
            pivot = None
            best = None
            for a in range(i, nrows):
                for b in range(i, ncols):
                    if m[a][b] != 0 and (best is None or abs(m[a][b]) < best):
                        best = abs(m[a][b])
                        pivot = (a, b)
            if pivot is None:
                break
            while True:
                pa, pb = pivot
                if pa != i:
                    row_swap(i, pa)
                if pb != i:
                    col_swap(i, pb)
                if m[i][i] < 0:
                    row_neg(i)
                done = True
                for a in range(i + 1, nrows):
                    q = m[a][i] // m[i][i]
                    if q:
                        row_sub(a, i, q)
                    if m[a][i] != 0:
                        done = False
                for b in range(i + 1, ncols):
                    q = m[i][b] // m[i][i]
                    if q:
                        col_sub(b, i, q)
                    if m[i][b] != 0:
                        done = False
                if done:
                    break
                pivot = (i, i)
                best = abs(m[i][i])
                for a in range(i, nrows):
                    for b in range(i, ncols):
                        if m[a][b] != 0 and abs(m[a][b]) < best:
                            best = abs(m[a][b])
                            pivot = (a, b)
            i += 1
            if i >= nrows or i >= ncols:
                break
    diag = [m[i][i] for i in range(min(nrows, ncols)) if m[i][i] != 0]
    return diag, u, uinv


# -- lattices ------------------------------------------------------------------


def columns(rows: list[list[int]]) -> list[list[int]]:
    return [list(c) for c in zip(*rows)]


def lattice_contains(rows: list[list[int]], vectors: list[list[int]]) -> bool:
    """Is every vector an integer combination of the columns of `rows`?

    With U·M·V = D from `smith_with_row_transform`, M·x = v is solvable
    exactly when (U·v)_i is divisible by d_i for i < rank and zero after.
    """
    diag, u, _uinv = smith_with_row_transform(rows)
    for v in vectors:
        uv = [sum(a * b for a, b in zip(row, v)) for row in u]
        if any(x % d for x, d in zip(uv, diag)) or any(uv[len(diag):]):
            return False
    return True


def same_lattice(a: list[list[int]], b: list[list[int]]) -> bool:
    """Do the columns of a and b (same row count) generate the same lattice?"""
    return lattice_contains(a, columns(b)) and lattice_contains(b, columns(a))


def saturated_kernel_basis(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """An ncols x k matrix whose columns are a basis of ker M in Z^ncols.

    With U·Mᵀ·V = D, the rows of U from rank on are killed by M.  U is
    unimodular, so they are part of a basis of Z^ncols: they span a
    saturated lattice of rank ncols - rank, which is all of ker M.
    """
    transpose = [[row[j] for row in rows] for j in range(ncols)]
    diag, u, _uinv = smith_with_row_transform(transpose)
    return [[u[i][j] for i in range(len(diag), ncols)] for j in range(ncols)]


# -- Moore boundaries by plain tuples -----------------------------------------
#
# These read a groupoid's plain attributes (arrows, units, source, range_,
# compose) and nothing else: the nerve is every composable tuple of arrows,
# sorted, and each face is built as a tuple by composing arrows.


def nerve_tuples(g, n: int) -> list[tuple[int, ...]]:
    """The composable n-tuples of arrows, sorted; degree 0 lists the units as 1-tuples."""
    if n == 0:
        return sorted((u,) for u in g.units)
    return sorted(
        t for t in product(range(g.arrows), repeat=n)
        if all(g.source[t[i]] == g.range_[t[i + 1]] for i in range(n - 1))
    )


def tuple_face(g, t: tuple[int, ...], i: int) -> tuple[int, ...]:
    """The i-th face of a composable tuple: drop the first (i = 0) or last (i = len)
    arrow, else compose t[i-1] with t[i]; a 1-tuple's faces are its source and range."""
    n = len(t)
    if n == 1:
        return ((g.source, g.range_)[i][t[0]],)
    if i == 0:
        return t[1:]
    if i == n:
        return t[:-1]
    return t[: i - 1] + (g.compose[(t[i - 1], t[i])],) + t[i + 1 :]


def moore_boundary(g, n: int) -> dict[tuple[int, int], int]:
    """∂_n on the sorted tuples as {(row, column): entry}: the alternating sum of
    the faces, with zero entries dropped."""
    rows = {t: i for i, t in enumerate(nerve_tuples(g, n - 1))}
    out: dict[tuple[int, int], int] = {}
    for x, t in enumerate(nerve_tuples(g, n)):
        for i in range(n + 1):
            key = (rows[tuple_face(g, t, i)], x)
            out[key] = out.get(key, 0) + (-1) ** i
    return {key: v for key, v in out.items() if v}


# -- Mayer–Vietoris maps from position lists ----------------------------------


def mv_maps(pos1: list[int], pos2: list[int], pos12: list[int], dim_total: int):
    """(α, β) of the Mayer–Vietoris sequence in one degree as dense rows, from
    the pieces' positions in the ambient basis: α sends intersection tuple p to
    +1 at p's column of piece 1 and -1 at p's column of piece 2, and β sends
    each piece column to the ambient basis vector at its position."""
    owners = [(1, p) for p in pos1] + [(2, p) for p in pos2]
    alpha = [[0] * len(pos12) for _ in owners]
    for j, p in enumerate(pos12):
        alpha[owners.index((1, p))][j] = 1
        alpha[owners.index((2, p))][j] = -1
    beta = [[0] * len(owners) for _ in range(dim_total)]
    for i, (_, p) in enumerate(owners):
        beta[p][i] = 1
    return alpha, beta


# -- closed forms -------------------------------------------------------------


def cyclic_homology_int(m: int, n: int) -> tuple[int, tuple[int, ...]]:
    """(rank, torsion) of degree-n integral homology of the order-m cyclic group."""
    if n == 0:
        return (1, ())
    if n % 2 == 1 and m > 1:
        return (0, (m,))
    return (0, ())


def cyclic_homology_mod(m: int, q: int, n: int) -> tuple[int, tuple[int, ...]]:
    """(rank, torsion) of H_n of the order-m cyclic group with Z/q coefficients."""
    if q == 1:
        return (0, ())
    if n == 0:
        return (0, (q,)) if q > 1 else (0, ())
    g = math.gcd(m, q)
    return (0, (g,)) if g > 1 else (0, ())


# -- exhaustive mod-q homology -------------------------------------------------


def subgroup_closure(generators: list[tuple[int, ...]], q: int, dim: int) -> frozenset:
    """All (Z/q)^dim vectors generated by the given vectors under addition.

    One generator g at a time: with S the span so far, S + <g> is the union
    of the cosets S + kg for k = 0, 1, ..., up to the first kg in S, and
    those cosets are disjoint, so every vector is built once.
    """
    span = {tuple([0] * dim)}
    for g in generators:
        g = tuple(x % q for x in g)
        base = list(span)
        shift = g
        while shift not in span:
            span.update(tuple((a + b) % q for a, b in zip(s, shift)) for s in base)
            shift = tuple((a + b) % q for a, b in zip(shift, g))
    return frozenset(span)


def _prime_factors(q: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= q:
        while q % d == 0:
            out[d] = out.get(d, 0) + 1
            q //= d
        d += 1
    if q > 1:
        out[q] = out.get(q, 0) + 1
    return out


def enumerate_mod_homology(
    bn: list[list[int]], bn1: list[list[int]], dim: int, q: int, limit: int = 10**6
) -> tuple[list[int], int]:
    """(sorted prime-power orders, group order) of ker/im over Z/q by enumeration.

    `bn` is the outgoing boundary (dim columns), `bn1` the incoming one
    (dim rows).  Requires q**dim <= limit.  Every chain v of (Z/q)^dim is
    visited once, in reflected mixed-radix Gray order: each step moves one
    coordinate by +-1, so the syndrome bn·v mod q changes by +- one column
    of bn, and v is a cycle when no syndrome entry is nonzero.  In the same
    pass each cycle counts towards c_j = |{v in K : p^j v in B}| for every
    prime power p^j dividing q, with p^j v kept as a base-q integer code; B
    is the span of bn1's columns.  The ratios c_j / c_{j-1} = p^{m_j}, with
    c_0 = |B|, count the cyclic factors of order at least p^j.
    """
    if q == 1 or dim == 0:
        return [], 1
    assert q**dim <= limit, f"enumeration blow-up: {q}**{dim} > {limit}"
    columns = [tuple(row[j] for row in bn1) for j in range(len(bn1[0]) if bn1 else 0)]
    image = subgroup_closure(columns, q, dim)
    assert all(tuple(x % q for x in c) in image for c in columns)
    place = [q**i for i in range(dim)]
    image_codes = {sum(x * w for x, w in zip(b, place)) for b in image}
    primes = _prime_factors(q)
    powers = [p**j for p, e in primes.items() for j in range(1, e + 1)]
    bn_columns = [[(r, row[i] % q) for r, row in enumerate(bn) if row[i] % q] for i in range(dim)]
    syndrome = [0] * len(bn)
    nonzero = 0  # syndrome entries that are not 0
    v = [0] * dim
    step = [1] * dim
    codes = [0] * len(powers)  # base-q code of p^j v mod q, one per power
    kernel = 0
    hits = [0] * len(powers)
    while True:
        if not nonzero:
            kernel += 1
            for t, code in enumerate(codes):
                if code in image_codes:
                    hits[t] += 1
        i = 0
        while i < dim and not 0 <= v[i] + step[i] < q:
            step[i] = -step[i]
            i += 1
        if i == dim:
            break
        s = step[i]
        for t, pj in enumerate(powers):
            codes[t] -= (pj * v[i]) % q * place[i]
            codes[t] += (pj * (v[i] + s)) % q * place[i]
        v[i] += s
        for r, a in bn_columns[i]:
            old = syndrome[r]
            new = (old + s * a) % q
            syndrome[r] = new
            nonzero += (new != 0) - (old != 0)
    order = kernel // len(image)
    assert kernel % len(image) == 0, "image not contained in kernel?"
    count = dict(zip(powers, hits))
    prime_powers = []
    for p, e_max in primes.items():
        counts = [len(image)] + [count[p**j] for j in range(1, e_max + 1)]
        m_prev = None
        for j in range(1, e_max + 1):
            ratio = counts[j] // counts[j - 1]
            assert counts[j] % counts[j - 1] == 0
            m_j = round(math.log(ratio, p)) if ratio > 1 else 0
            assert p**m_j == ratio, (p, j, ratio)
            if m_prev is not None:
                exact = m_prev - m_j
                prime_powers.extend([p ** (j - 1)] * exact)
            m_prev = m_j
        prime_powers.extend([p**e_max] * m_prev)
    prime_powers = [pp for pp in prime_powers if pp > 1]
    product_check = 1
    for pp in prime_powers:
        product_check *= pp
    assert product_check == order, (prime_powers, order)
    return sorted(prime_powers), order


# -- exactness of finite presented groups by enumeration -----------------------


def _group_elements(relations: list[list[int]], limit: int = 10**4):
    """(elements as canonical tuples, canon function, lift function) of Z^g/L.

    `relations` is g x r (columns generate the relation lattice L).  Only
    finite groups are supported: the relation lattice must have full rank.
    """
    g = len(relations)
    diag, u, uinv = smith_with_row_transform(relations)
    if len(diag) < g:
        raise ValueError("infinite group: relation lattice is not full rank")
    order = 1
    for d in diag:
        order *= d
    if order > limit:
        raise ValueError(f"group too large to enumerate: {order}")

    def canon(x: list[int]) -> tuple[int, ...]:
        return tuple(
            sum(u[i][k] * x[k] for k in range(g)) % diag[i] for i in range(g)
        )

    def lift(y: tuple[int, ...]) -> list[int]:
        return [sum(uinv[i][k] * y[k] for k in range(g)) for i in range(g)]

    elements = [tuple(y) for y in product(*[range(d) for d in diag])]
    return elements, canon, lift


def exactness_by_enumeration(
    rel_a: list[list[int]],
    mat_f: list[list[int]],
    rel_m: list[list[int]],
    mat_g: list[list[int]],
    rel_t: list[list[int]],
    limit: int = 10**4,
) -> bool:
    """Is im(f) = ker(g) at M, checked element by element?

    All three groups must be finite of order <= limit.  f: A -> M and
    g: M -> T are given on generators (target-gens x source-gens matrices).
    """
    elements_a, canon_a, lift_a = _group_elements(rel_a, limit)
    elements_m, canon_m, lift_m = _group_elements(rel_m, limit)
    _elements_t, canon_t, _lift_t = _group_elements(rel_t, limit)

    def apply(mat: list[list[int]], x: list[int]) -> list[int]:
        return [sum(row[k] * x[k] for k in range(len(x))) for row in mat]

    image = set()
    for y in elements_a:
        x = lift_a(y)
        image.add(canon_m(apply(mat_f, x)) if mat_f else canon_m([0] * len(rel_m)))
    kernel = set()
    zero_t = tuple([0] * len(rel_t))
    for y in elements_m:
        x = lift_m(y)
        t = apply(mat_g, x) if mat_g else [0] * len(rel_t)
        if canon_t(t) == zero_t:
            kernel.add(tuple(y))
    return image == kernel


# -- dyadic helpers -------------------------------------------------------------


def dyadic_width(level: int) -> Fraction:
    return Fraction(1, 2**level)
