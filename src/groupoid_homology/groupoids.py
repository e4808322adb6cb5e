"""Finite discrete groupoids, their nerves, and the Moore chain complex.

Arrows are integers 0..arrows-1; units are the identity arrows, and source /
range / inverse are total maps into arrow indices.  Composition is stored as
an explicit table over exactly the composable pairs (source of the left factor
equals range of the right factor), so validation can exhaustively check the
axioms once and everything downstream is table lookups.

`arrow_labels` tracks where each arrow came from: a reduction keeps the
ambient labels of the arrows it retains, so reducing twice composes labels
exactly and piece-to-ambient basis correspondences stay trivial to read off.
Labels must be distinct, so a label names one arrow of the ambient.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Sequence

from .abelian import _json_ints, _json_list, _json_object
from .chains import FreeChainComplex
from .matrix import IntegerMatrix, SparseMatrix

# The nerve budget: basis elements over all degrees, checked on level sizes
# counted from the arrow tables, up to the first degree over it, before any
# tuple is allocated (`_level_sizes`).  Boundaries are stored sparse, with at
# most n+1 entries per degree-n basis element, so it also bounds the boundary
# entries (sum of (n+1) * dims[n]) and their memory.  The iso-type route
# (`homology_groups`, integral and Z/q, so `homology` with any coefficients and
# `uct`) reduces copies of the sparse rows that clearing does not skip, with no
# transform.  On the nerves measured those copies hold no more entries than
# the boundaries (`homology cyclic:60 -N 3`: 1.8-3.1 s and 132 MB peak, of
# which the nerve takes 91 MB; tools/ladder.py), so the budget bounds that
# route's memory too; a reduced row can still fill in principle.
# The Mayer-Vietoris short exact sequence is sparse as well: its maps hold one
# or two entries per column and are checked by sparse products.  The
# representatives of `homology_results` (for MV and the mod-q reduction check)
# come from a column reduction of the sparse boundaries that records its column
# operations; its columns and records can fill, which the budget does not
# bound, and only a small Smith form of B's coordinates is dense.
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
        "arrow_labels",
        "_nerve_cache",
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
        arrow_labels: Sequence[object] | None = None,
    ):
        self.arrows = arrows
        self.units = tuple(sorted(units))
        self.source = tuple(source)
        self.range_ = tuple(range_)
        self.inverse = tuple(inverse)
        self.compose = dict(compose)
        self.arrow_labels = (
            tuple(arrow_labels) if arrow_labels is not None else tuple(range(arrows))
        )
        self._nerve_cache: list[NerveLevel] | None = None
        self._by_range: dict[int, list[int]] | None = None
        self.validate()

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Exhaustively check the groupoid axioms; raise ValueError on failure."""
        k = self.arrows
        if k < 0:
            raise ValueError("negative arrow count")
        if not (len(self.source) == len(self.range_) == len(self.inverse) == k):
            raise ValueError("shape mismatch: structure maps must cover every arrow")
        if len(self.arrow_labels) != k:
            raise ValueError("shape mismatch: arrow labels must cover every arrow")
        if len(set(self.arrow_labels)) != k:
            raise ValueError("repeated arrow labels")
        unit_set = set(self.units)
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
        for g in range(k):
            for h in range(k):
                if self.source[g] == self.range_[h] and (g, h) not in self.compose:
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
        for (g, h) in self.compose:
            for e in range(k):
                if self.source[h] == self.range_[e]:
                    left = self.compose[(self.compose[(g, h)], e)]
                    right = self.compose[(g, self.compose[(h, e)])]
                    if left != right:
                        raise ValueError(f"associativity violated at arrows ({g}, {h}, {e})")

    # -- basic queries -----------------------------------------------------

    def arrows_into(self, u: int) -> list[int]:
        """Arrows with range u, ascending (memoized; drives nerve extension)."""
        if self._by_range is None:
            table: dict[int, list[int]] = {v: [] for v in self.units}
            for g in range(self.arrows):
                table[self.range_[g]].append(g)
            self._by_range = table
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
            and self.arrow_labels == other.arrow_labels
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

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "FiniteGroupoid":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def validate_groupoid(g: FiniteGroupoid) -> None:
    g.validate()


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


def disjoint_union(g1: FiniteGroupoid, g2: FiniteGroupoid) -> FiniteGroupoid:
    """Disjoint union, with g2's arrows re-indexed after g1's."""
    off = g1.arrows
    compose = dict(g1.compose)
    compose.update({(g + off, h + off): gh + off for (g, h), gh in g2.compose.items()})
    return FiniteGroupoid(
        g1.arrows + g2.arrows,
        list(g1.units) + [u + off for u in g2.units],
        list(g1.source) + [s + off for s in g2.source],
        list(g1.range_) + [r + off for r in g2.range_],
        list(g1.inverse) + [i + off for i in g2.inverse],
        compose,
    )


# -- nerve and faces ---------------------------------------------------------


class NerveLevel:
    """All composable n-tuples of arrows, deduplicated and lex-ordered.

    Degree 0 lists the units as 1-tuples so every level indexes uniformly.
    """

    __slots__ = ("degree", "tuples", "_positions")

    def __init__(self, degree: int, tuples: list[tuple[int, ...]]):
        self.degree = degree
        self.tuples = tuples
        self._positions = {t: i for i, t in enumerate(tuples)}

    def __len__(self) -> int:
        return len(self.tuples)

    def index(self, t: tuple[int, ...]) -> int:
        return self._positions[t]

    def __contains__(self, t: tuple[int, ...]) -> bool:
        return t in self._positions

    def __repr__(self) -> str:
        return f"NerveLevel(degree={self.degree}, size={len(self.tuples)})"


def _level_sizes(g: FiniteGroupoid, n: int) -> Iterator[int]:
    """Sizes of nerve levels 1..n, counted from the arrow tables without building a tuple.

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


def _nerve_levels(g: FiniteGroupoid, n: int, budget: int | None = None) -> list[NerveLevel]:
    """Nerve levels 0..n, cached on the groupoid; optional total-size budget.

    The budget is checked on counted sizes, degree by degree up to the first
    one over it, before any level is built, cached or not, so a refused call
    allocates no tuple.
    """
    if budget is not None:
        total = len(g.units)
        for degree, size in enumerate(_level_sizes(g, n), start=1):
            total += size
            if total > budget:
                raise ValueError(f"nerve budget exceeded at degree {degree}")
    if g._nerve_cache is None:
        g._nerve_cache = [NerveLevel(0, [(u,) for u in g.units])]
    cache = g._nerve_cache
    while len(cache) <= n:
        degree = len(cache)
        if degree == 1:
            level = [(a,) for a in range(g.arrows)]
        else:
            level = [
                prefix + (a,)
                for prefix in cache[degree - 1].tuples
                for a in g.arrows_into(g.source[prefix[-1]])
            ]
        cache.append(NerveLevel(degree, level))
    return cache[: n + 1]


def nerve(g: FiniteGroupoid, n: int) -> NerveLevel:
    """The degree-n nerve level (degree 0: the units)."""
    if n < 0:
        raise ValueError("negative degree")
    return _nerve_levels(g, n)[n]


def face(g: FiniteGroupoid, n: int, i: int, t: tuple[int, ...]) -> tuple[int, ...]:
    """The i-th face of a composable n-tuple.

    Drops the first arrow (i = 0) or the last (i = n), composing adjacent
    arrows in between; for n = 1 the faces are the source and range units.
    """
    if n < 1 or len(t) != n:
        raise ValueError("face needs a composable tuple of positive length")
    if not 0 <= i <= n:
        raise ValueError(f"index out of range: face {i} of an {n}-tuple")
    return _faces(g, n, t)[i]


def _faces(g: FiniteGroupoid, n: int, t: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All n+1 faces of a composable n-tuple, face 0 first, unchecked (see `face`)."""
    if n == 1:
        return (g.source[t[0]],), (g.range_[t[0]],)
    compose = g.compose
    inner = (t[: i - 1] + (compose[(t[i - 1], t[i])],) + t[i + 1 :] for i in range(1, n))
    return (t[1:], *inner, t[:-1])


def pushforward_matrix(g: FiniteGroupoid, n: int, i: int) -> IntegerMatrix:
    """Matrix of the fiberwise-sum pushforward along the i-th face map.

    Entry (y, x) is 1 exactly when face i sends tuple x to tuple y, so every
    column sums to 1.
    """
    if n < 1:
        raise ValueError("pushforward needs degree >= 1")
    levels = _nerve_levels(g, n)
    below, here = levels[n - 1], levels[n]
    out = IntegerMatrix.zeros(len(below), len(here))
    for x, t in enumerate(here.tuples):
        out._rows[below.index(face(g, n, i, t))][x] = 1
    return out


def moore_complex(
    g: FiniteGroupoid,
    max_degree: int,
    modulus: int = 0,
    budget: int | None = DEFAULT_BUDGET,
) -> FreeChainComplex:
    """The Moore complex of the nerve up to the given degree.

    Boundary n is the alternating sum of the n+1 face pushforwards; with a
    modulus q >= 1 the same matrices are reduced entrywise mod q.  Each
    boundary is a `SparseMatrix` filled straight from the faces: a column
    holds at most n+1 entries, and an entry that cancels or is zero mod q is
    never stored.  The total number of basis elements across degrees is
    capped by `budget`, so the boundaries hold at most sum((n+1) * dims[n])
    entries and the budget bounds their memory as well as the nerve's.
    """
    if max_degree < 1:
        raise ValueError("max degree must be >= 1")
    if modulus < 0:
        raise ValueError("negative modulus")
    levels = _nerve_levels(g, max_degree, budget)
    dims = [len(lvl) for lvl in levels]
    boundaries = [SparseMatrix(0, dims[0])]
    for n in range(1, max_degree + 1):
        below, here = levels[n - 1], levels[n]
        b = SparseMatrix(dims[n - 1], dims[n])
        rows, positions = b._dicts, below._positions
        for x, t in enumerate(here.tuples):
            sign = 1
            for f in _faces(g, n, t):
                r = rows[positions[f]]
                v = r.get(x, 0) + sign
                if modulus:
                    v %= modulus
                if v:
                    r[x] = v
                else:  # cancelled faces and zero residues are not stored
                    r.pop(x, None)
                sign = -sign
        boundaries.append(b)
    return FreeChainComplex(dims, boundaries, [lvl.tuples for lvl in levels], modulus=modulus)


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


def is_saturated(g: FiniteGroupoid, members: Iterable[int]) -> bool:
    """Is the unit subset a union of orbits?"""
    return saturation_witness(g, members) is None


def reduction(g: FiniteGroupoid, members: Iterable[int]) -> FiniteGroupoid:
    """The subgroupoid of arrows with both endpoints in the unit subset.

    Arrow labels keep the ambient labels, so reductions compose exactly:
    reducing by U then V equals reducing by U ∩ V, labels included.
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
        arrow_labels=[g.arrow_labels[a] for a in kept],
    )
