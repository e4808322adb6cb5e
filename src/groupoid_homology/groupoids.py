"""Finite discrete groupoids, their nerves, and the Moore chain complex.

Arrows are integers 0..arrows-1; units are the identity arrows, and source /
range / inverse are total maps into arrow indices.  Composition is stored as
an explicit table over exactly the composable pairs (source of the left factor
equals range of the right factor), so validation can exhaustively check the
axioms once and everything downstream is table lookups.

The nerve is numbered, not stored: `moore_complex` numbers the composable
n-tuples in lex order from the tuple's prefix and last arrow, and reads
every face off integer face tables of the level below, so no tuple is built.
`_positions` reads a restriction G|U's sub-nerve off the same numbering.
"""

from __future__ import annotations

import json
from itertools import accumulate, islice
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .abelian import _json_ints, _json_list, _json_object
from .chains import FreeChainComplex
from .matrix import IntegerMatrix

# The nerve budget: the most basis elements, over all degrees, that a nerve may
# have.  `nerve_dims` checks it on level sizes counted from the arrow tables,
# before any table is built, so a boundary (at most n+1 entries per degree-n
# basis element) and a level's face tables are bounded with it.
DEFAULT_BUDGET = 10**6


class FiniteGroupoid:
    """A finite groupoid on explicitly tabulated arrows.

    Construct via the preset helpers (`units`, `one_object_cyclic`, `pair`,
    `action`, `disjoint_union`) or `from_json`; direct construction validates
    all axioms exhaustively.
    """

    __slots__ = (
        "arrows",
        "units",
        "source",
        "range_",
        "inverse",
        "compose",
        "_by_range",
    )

    def __init__(
        self,
        arrows: int,
        units: Sequence[int],
        source: Sequence[int],
        range_: Sequence[int],
        inverse: Sequence[int],
        compose: dict[tuple[int, int], int],
    ):
        self.arrows = arrows
        self.units = tuple(sorted(units))
        self.source = tuple(source)
        self.range_ = tuple(range_)
        self.inverse = tuple(inverse)
        self.compose = dict(compose)
        self.validate()

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Exhaustively check the groupoid axioms; raise ValueError on failure."""
        k = self.arrows
        if k < 0:
            raise ValueError("negative arrow count")
        if not (len(self.source) == len(self.range_) == len(self.inverse) == k):
            raise ValueError("shape mismatch: structure maps must cover every arrow")
        unit_set = set(self.units)
        for u, v in zip(self.units, self.units[1:]):
            if u == v:
                raise ValueError(f"unit {u} listed twice")
        for g in range(k):
            for name, val in (("source", self.source[g]), ("range", self.range_[g]),
                              ("inverse", self.inverse[g])):
                if not (0 <= val < k):
                    raise ValueError(f"{name} of arrow {g} out of bounds")
            if self.source[g] not in unit_set:
                raise ValueError(f"source of arrow {g} is not a unit")
            if self.range_[g] not in unit_set:
                raise ValueError(f"range of arrow {g} is not a unit")
        for u in self.units:
            if not (0 <= u < k):
                raise ValueError(f"unit {u} out of bounds")
            if self.source[u] != u or self.range_[u] != u:
                raise ValueError(f"unit law violated at arrow {u}: unit is not its own endpoint")
        for (g, h), gh in self.compose.items():
            if not (0 <= g < k and 0 <= h < k and 0 <= gh < k):
                raise ValueError(f"composition entry out of bounds at pair ({g}, {h})")
            if self.source[g] != self.range_[h]:
                raise ValueError(f"composition defined for non-composable pair ({g}, {h})")
            if self.source[gh] != self.source[h] or self.range_[gh] != self.range_[g]:
                raise ValueError(f"composition endpoints wrong at pair ({g}, {h})")
        into: dict[int, list[int]] = {u: [] for u in self.units}  # arrows by range, ascending
        for e in range(k):
            into[self.range_[e]].append(e)
        self._by_range = into
        if len(self.compose) != sum(len(into[s]) for s in self.source):  # it holds composable pairs only
            g, h = next((g, h) for g in range(k) for h in into[self.source[g]] if (g, h) not in self.compose)
            raise ValueError(f"composition missing for composable pair ({g}, {h})")
        for g in range(k):
            if self.compose[(self.range_[g], g)] != g or self.compose[(g, self.source[g])] != g:
                raise ValueError(f"unit law violated at arrow {g}")
        for g in range(k):
            ginv = self.inverse[g]
            if (
                self.source[ginv] != self.range_[g]
                or self.range_[ginv] != self.source[g]
                or self.compose[(g, ginv)] != self.range_[g]
                or self.compose[(ginv, g)] != self.source[g]
            ):
                raise ValueError(f"inverse law violated at arrow {g}")
        times: list[dict[int, int]] = [{} for _ in range(k)]  # times[x][e] = x∘e
        for (x, e), xe in self.compose.items():
            times[x][e] = xe
        for (g, h), gh in self.compose.items():  # (gh)e = g(he) for every e into source h
            es = into[self.source[h]]
            left = list(map(times[gh].__getitem__, es))
            if left != list(map(times[g].__getitem__, map(times[h].__getitem__, es))):
                e = next(e for e in es if times[gh][e] != times[g][times[h][e]])
                raise ValueError(f"associativity violated at arrows ({g}, {h}, {e})")

    # -- basic queries -----------------------------------------------------

    def arrows_into(self, u: int) -> list[int]:
        """Arrows with range u, ascending (the table `validate` builds)."""
        return self._by_range[u]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteGroupoid):
            return NotImplemented
        return (
            self.arrows == other.arrows
            and self.units == other.units
            and self.source == other.source
            and self.range_ == other.range_
            and self.inverse == other.inverse
            and self.compose == other.compose
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"FiniteGroupoid(arrows={self.arrows}, units={len(self.units)})"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "arrows": self.arrows,
            "units": list(self.units),
            "source": list(self.source),
            "range": list(self.range_),
            "inverse": list(self.inverse),
            "compose": sorted([g, h, gh] for (g, h), gh in self.compose.items()),
        }

    @classmethod
    def from_json(cls, data: dict) -> "FiniteGroupoid":
        """Strict inverse of `to_json`: a non-object, a missing key, a
        non-list or a non-int entry raises ValueError naming the key."""
        keys = ("arrows", "units", "source", "range", "inverse", "compose")
        _json_object("groupoid", data, keys)
        if type(data["arrows"]) is not int:
            raise ValueError(f"'arrows' must be an integer, got {data['arrows']!r}")
        compose = {}
        for triple in _json_list("compose", data["compose"]):
            if not isinstance(triple, list) or len(triple) != 3:
                raise ValueError("composition entries must be [left, right, result] triples")
            g, h, gh = _json_ints("compose", triple)
            if (g, h) in compose:
                raise ValueError(f"duplicate composition entry for pair ({g}, {h})")
            compose[(g, h)] = gh
        return cls(
            data["arrows"],
            *(_json_ints(key, data[key]) for key in ("units", "source", "range", "inverse")),
            compose,
        )

    @classmethod
    def load(cls, path: str) -> "FiniteGroupoid":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


# -- presets ----------------------------------------------------------------


def units(k: int) -> FiniteGroupoid:
    """The unit groupoid on k points: only identity arrows."""
    if k < 1:
        raise ValueError("unit groupoid needs at least one point")
    idx = list(range(k))
    return FiniteGroupoid(k, idx, idx, idx, idx, {(u, u): u for u in idx})


def one_object_cyclic(m: int) -> FiniteGroupoid:
    """One unit whose isotropy group is Z/m; arrow i is the i-th power."""
    if m < 1:
        raise ValueError("cyclic order must be >= 1")
    return FiniteGroupoid(
        m,
        [0],
        [0] * m,
        [0] * m,
        [(-i) % m for i in range(m)],
        {(i, j): (i + j) % m for i in range(m) for j in range(m)},
    )


def pair(k: int) -> FiniteGroupoid:
    """The pair groupoid on k points: one arrow (a, b) from point b to point a."""
    if k < 1:
        raise ValueError("pair groupoid needs at least one point")

    def idx(a: int, b: int) -> int:
        return a * k + b

    source = [0] * (k * k)
    range_ = [0] * (k * k)
    inverse = [0] * (k * k)
    for a in range(k):
        for b in range(k):
            source[idx(a, b)] = idx(b, b)
            range_[idx(a, b)] = idx(a, a)
            inverse[idx(a, b)] = idx(b, a)
    compose = {
        (idx(a, b), idx(b, c)): idx(a, c)
        for a in range(k)
        for b in range(k)
        for c in range(k)
    }
    return FiniteGroupoid(k * k, [idx(a, a) for a in range(k)], source, range_, inverse, compose)


def action(m: int, permutation: Sequence[int]) -> FiniteGroupoid:
    """Transformation groupoid of Z/m acting on {0..p-1} by the permutation.

    Arrow (x, j), indexed x*m + j, runs from point x to point σ^j(x); composing
    stacks exponents.  The permutation's order must divide m.
    """
    perm = list(permutation)
    p = len(perm)
    if m < 1 or p < 1 or sorted(perm) != list(range(p)):
        raise ValueError("action preset needs m >= 1 and a permutation of 0..p-1")
    power = list(range(p))  # σ^m must be the identity
    for _ in range(m):
        power = [perm[x] for x in power]
    if power != list(range(p)):
        raise ValueError("permutation order does not divide m")

    powers = [list(range(p))]
    for _ in range(m - 1):
        powers.append([perm[x] for x in powers[-1]])

    def idx(x: int, j: int) -> int:
        return x * m + j

    source = [0] * (p * m)
    range_ = [0] * (p * m)
    inverse = [0] * (p * m)
    compose = {}
    for x in range(p):
        for j in range(m):
            source[idx(x, j)] = idx(x, 0)
            range_[idx(x, j)] = idx(powers[j][x], 0)
            inverse[idx(x, j)] = idx(powers[j][x], (-j) % m)
    for x in range(p):
        for j in range(m):  # right factor: x -> σ^j(x)
            for j2 in range(m):  # left factor starts at σ^j(x)
                compose[(idx(powers[j][x], j2), idx(x, j))] = idx(x, (j + j2) % m)
    return FiniteGroupoid(p * m, [idx(x, 0) for x in range(p)], source, range_, inverse, compose)


def disjoint_union(*groupoids: FiniteGroupoid) -> FiniteGroupoid:
    """Disjoint union, each part's arrows re-indexed after those of the parts before it.

    One groupoid is built and validated for all the parts, so n parts cost
    one pass over their tables, not a union of the whole so far per part.

    >>> disjoint_union(one_object_cyclic(2), units(1), one_object_cyclic(3)).units
    (0, 2, 3)
    """
    if not groupoids:
        raise ValueError("disjoint union of no groupoids")
    units, source, range_, inverse, compose = [], [], [], [], {}
    off = 0
    for g in groupoids:
        units += [u + off for u in g.units]
        source += [s + off for s in g.source]
        range_ += [r + off for r in g.range_]
        inverse += [i + off for i in g.inverse]
        compose.update({(a + off, b + off): ab + off for (a, b), ab in g.compose.items()})
        off += g.arrows
    return FiniteGroupoid(off, units, source, range_, inverse, compose)


# -- nerve tables and the Moore complex ---------------------------------------


def _level_sizes(g: FiniteGroupoid, n: int) -> Iterator[int]:
    """Sizes of nerve levels 1..n, counted from the arrow tables without building a table.

    c_d[v] counts the composable d-tuples whose last arrow has source v: a
    tuple grows by an arrow a whose range is that source, so with c_0[v] = 1,
    c_{d+1}[v] = sum over source(a) = v of c_d[range(a)].  Sizes are yielded
    one degree at a time, so a budget check stops counting (and the counts
    stop growing) at the first degree over it.

    >>> list(_level_sizes(pair(3), 3))
    [9, 27, 81]
    """
    counts = dict.fromkeys(g.units, 1)
    for _ in range(n):
        grown = dict.fromkeys(g.units, 0)
        for a in range(g.arrows):
            grown[g.source[a]] += counts[g.range_[a]]
        counts = grown
        yield sum(counts.values())


def _alternating_sum(rows: int, cols: int, columns: Iterable[tuple[int, ...]]) -> IntegerMatrix:
    """The matrix whose column x is the sum of (-1)^i e_{f_i} over the faces
    f_0, f_1, ... that `columns` yields for x; repeated faces add up, and an
    entry that cancels is deleted from its row dict, so no zero is stored."""
    b = IntegerMatrix(rows, cols)
    dicts = b._dicts
    for x, fs in enumerate(columns):
        sign = 1
        for f in fs:
            r = dicts[f]
            if x in r:
                v = r[x] + sign
                if v:
                    r[x] = v
                else:  # cancelled faces are not stored
                    del r[x]
            else:
                r[x] = sign
            sign = -sign
    return b


_BLOCK = 1 << 12  # face tuples checked and assembled at a time, so the top level is never stored


def _checked_columns(below: list, faces: list) -> Iterator[tuple[int, ...]]:
    """The columns (d_0 x, ..., d_n x) of one level's face tables, yielded a
    block at a time once `_check_identities` holds on the block."""
    tables, start = [iter(f) for f in faces], 0
    while (block := [list(islice(t, _BLOCK)) for t in tables])[0]:
        _check_identities(below, block, start)
        yield from zip(*block)
        start += len(block[0])


def _check_identities(below: list, block: list[list[int]], start: int) -> None:
    """Raise unless d_i d_j = d_{j-1} d_i for i < j on `block`, the faces of basis
    elements start, start + 1, ... of degree n = len(block) - 1, with `below` the face
    tables of degree n - 1.  These identities give ∂∘∂ = 0 (May, 1967)."""
    n = len(block) - 1
    faces = [itemgetter(*f) for f in block]  # faces[j](table) reads table at every d_j x
    for j in range(1, n + 1):
        for i in range(j):
            if faces[j](below[i]) != faces[i](below[j - 1]):
                x = start + next(k for k, (u, v) in enumerate(zip(block[j], block[i]))
                                 if below[i][u] != below[j - 1][v])
                raise ValueError(f"simplicial identity d_{i} d_{j} = d_{j - 1} d_{i} fails at degree {n}, "
                                 f"basis element {x}")


def _check_column_sums(n: int, b: IntegerMatrix) -> None:
    """Raise unless every column of ∂_n sums to 1 - (n mod 2), the sum of (-1)^i
    over its n + 1 faces; an entry with a flipped sign moves its column's sum by ±2."""
    sums = [0] * b.cols
    for r in b._dicts:
        for x, v in r.items():
            sums[x] += v
    expected = 1 - n % 2
    if sums.count(expected) != b.cols:
        x = next(x for x, s in enumerate(sums) if s != expected)
        raise ValueError(f"boundary {n} column {x} sums to {sums[x]}, expected {expected}")


def nerve_dims(g: FiniteGroupoid, max_degree: int, budget: int | None = DEFAULT_BUDGET) -> list[int]:
    """The nerve's level sizes in degrees 0..max_degree, counted by `_level_sizes`
    before any table is built, and refused at the first degree where their sum is over `budget`."""
    if max_degree < 1:
        raise ValueError("max degree must be >= 1")
    dims = [len(g.units)]
    for degree, size in enumerate(_level_sizes(g, max_degree), start=1):
        dims.append(size)
        if budget is not None and sum(dims) > budget:
            raise ValueError(f"nerve budget exceeded at degree {degree}")
    return dims


def moore_complex(
    g: FiniteGroupoid,
    max_degree: int,
    budget: int | None = DEFAULT_BUDGET,
) -> FreeChainComplex:
    """The Moore complex of the nerve up to the given degree.

    Boundary n is the alternating sum of the n+1 face maps.  The degree-n basis
    is the composable n-tuples in lex order (degree 0: the units, degree 1:
    the arrows), numbered without building a tuple.  For n >= 2 the tuple
    with prefix p and last arrow a is x = off_n[p] + rank[a], where rank[a]
    is a's position among the arrows into range(a) and off_n[p] counts the
    tuples whose prefix precedes p.  So every face is a lookup in the face
    tables of the level below: d_n x = p, d_i x = off_{n-1}[d_i p] + rank[a]
    for i <= n-2, and d_{n-1} x = off_{n-1}[d_{n-1} p] + rank[last p ∘ a],
    where d_{n-1} p is p's prefix (at n = 2, d_0 x = a and d_1 x = last p ∘ a).
    Only the level below's tables are kept, and the top level's faces are
    never stored.

    ∂∘∂ = 0 is proved by no matrix product but by `_checked_columns` and
    `_check_column_sums`, so the complex is built by `FreeChainComplex._trusted`.

    Each boundary is an `IntegerMatrix` over Z: a column holds at most n+1
    entries, and an entry that cancels is not stored.  The total
    number of basis elements across degrees is capped by `budget`, checked
    on counted sizes before any table is built (`nerve_dims`), so the boundaries
    hold at most sum((n+1) * dims[n]) entries and the budget bounds their memory.
    """
    dims = nerve_dims(g, max_degree, budget)
    unit = {u: i for i, u in enumerate(g.units)}
    into = [g.arrows_into(s) for s in g.source]  # the arrows that can follow b, by rank
    faces = [[unit[s] for s in g.source], [unit[r] for r in g.range_]]
    boundaries = [IntegerMatrix(0, dims[0]), _alternating_sum(dims[0], dims[1], zip(*faces))]
    if max_degree > 1:  # these tables have dims[2] entries, counted by the budget
        rank = [0] * g.arrows
        for u in g.units:
            for j, a in enumerate(g.arrows_into(u)):
                rank[a] = j
        composed = [[g.compose[(b, a)] for a in kids] for b, kids in enumerate(into)]
        spans = [range(len(kids)) for kids in into]  # the ranks of the arrows that follow b
    last, off = range(g.arrows), []
    for n in range(2, max_degree + 1):
        keep = list if n < max_degree else iter
        kids = [into[b] for b in last]
        if n == 2:
            inner = [[a for ks in kids for a in ks], keep(c for b in last for c in composed[b])]
        else:
            inner = [
                keep(o + j for o, b in zip(map(off.__getitem__, face), last) for j in spans[b])
                for face in faces[:-1]
            ]
            inner.append(keep(off[f] + rank[c] for f, b in zip(faces[-1], last) for c in composed[b]))
        below, faces = faces, [*inner, keep(p for p, ks in enumerate(kids) for _ in ks)]
        boundaries.append(_alternating_sum(dims[n - 1], dims[n], _checked_columns(below, faces)))
        if n < max_degree:
            last = faces[0] if n == 2 else [a for ks in kids for a in ks]
            off = list(accumulate(map(len, kids), initial=0))
    for n in range(1, max_degree + 1):
        _check_column_sums(n, boundaries[n])
    return FreeChainComplex._trusted(dims, boundaries)


def _positions(g: FiniteGroupoid, max_degree: int, members: Sequence[int]) -> list[list[int]]:
    """Per degree, the positions in `moore_complex`'s basis of the tuples that lie in G|U.

    Read off the numbering's tables: a tuple of degree n >= 2 lies in G|U
    exactly when its prefix does and the source of its last arrow lies in U,
    and the tuples with prefix p end in the arrows into the source of p's
    last arrow, in order.  Degree 1 checks both endpoints of the arrow,
    degree 0 that the unit lies in U.  These are the tuples that the nerve of
    `reduction` on U enumerates, in the same order.
    """
    mem = frozenset(members)
    inside = [s in mem for s in g.source]
    levels = [[u in mem for u in g.units], [s and r in mem for s, r in zip(inside, g.range_)]]
    into = [g.arrows_into(s) for s in g.source]
    last = range(g.arrows)
    for _ in range(2, max_degree + 1):
        kids = [into[b] for b in last]
        levels.append([m and inside[a] for m, ks in zip(levels[-1], kids) for a in ks])
        last = [a for ks in kids for a in ks]
    return [[i for i, m in enumerate(level) if m] for level in levels]


# -- orbits, saturation, reduction -------------------------------------------


def orbits(g: FiniteGroupoid) -> list[tuple[int, ...]]:
    """Partition of the units under "some arrow connects them", sorted."""
    parent = {u: u for u in g.units}

    def find(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for a in range(g.arrows):
        ru, su = find(g.range_[a]), find(g.source[a])
        if ru != su:
            parent[ru] = su
    groups: dict[int, list[int]] = {}
    for u in g.units:
        groups.setdefault(find(u), []).append(u)
    return sorted(tuple(sorted(v)) for v in groups.values())


def saturation_witness(g: FiniteGroupoid, members: Iterable[int]) -> int | None:
    """An arrow with exactly one endpoint in the set, or None if saturated."""
    mem = frozenset(members)
    for u in mem:
        if u not in g.units:
            raise ValueError(f"unit subset contains non-unit {u}")
    for a in range(g.arrows):
        if (g.source[a] in mem) != (g.range_[a] in mem):
            return a
    return None


def reduction(g: FiniteGroupoid, members: Iterable[int]) -> FiniteGroupoid:
    """The subgroupoid G|U of arrows with both ends in U; on one unit, its isotropy group.

    Kept arrows are renumbered in ascending order, so its nerve lists the
    ambient tuples that lie in the subset, in the ambient's lex order.
    """
    mem = frozenset(members)
    for u in mem:
        if u not in g.units:
            raise ValueError(f"unit subset contains non-unit {u}")
    kept = [a for a in range(g.arrows) if g.source[a] in mem and g.range_[a] in mem]
    new_index = {a: i for i, a in enumerate(kept)}
    compose = {
        (new_index[x], new_index[y]): new_index[xy]
        for (x, y), xy in g.compose.items()
        if x in new_index and y in new_index
    }
    return FiniteGroupoid(
        len(kept),
        [new_index[u] for u in g.units if u in mem],
        [new_index[g.source[a]] for a in kept],
        [new_index[g.range_[a]] for a in kept],
        [new_index[g.inverse[a]] for a in kept],
        compose,
    )


def isotropy_groups(g: FiniteGroupoid) -> list[FiniteGroupoid]:
    """The isotropy group H at each orbit's least unit v0, in `orbits` order.

    For each unit v of an orbit pick an arrow γ_v: v0 -> v (γ_{v0} = v0).  The
    functor r(a) = γ_{range a}⁻¹·a·γ_{source a} onto H and the inclusion i of H
    are an equivalence (r∘i = id, and γ: i∘r => id is natural), and nerves of
    equivalent groupoids are homotopy equivalent, so H_*(g; A) is the direct
    sum of the groups' H_*(H; A) for every coefficient group A (Crainic-Moerdijk
    2000; Matui 2012).  In degree n an orbit on k units has k^{n+1} times as many
    tuples as H.  When every orbit is one unit, g already is the disjoint union
    of its isotropy groups and comes back as `[g]`: no copy, no second validation."""
    classes = orbits(g)
    if len(classes) == len(g.units):
        return [g]
    return [reduction(g, orbit[:1]) for orbit in classes]
