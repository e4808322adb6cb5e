"""Finitely generated abelian groups, presentations, and homomorphisms.

Iso types live in :class:`FinAbGroup` (invariant-factor normal form, so
structural equality is isomorphism).  Actual groups-with-elements live in
:class:`PresentedGroup` (a diagonal presentation ⊕ Z/orders[i], 0 meaning Z),
with :class:`GroupHom` carrying maps between presentations.  The split matters:
homology *classes* and exactness questions need presentations, while reports
and tables only need iso types.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable, Sequence

from .matrix import IntegerMatrix, invariant_factors, sweep_invariant_factors


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division (desk-scale inputs)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _normalize_torsion(orders: Iterable[int]) -> tuple[int, ...]:
    """Invariant factors of the direct sum of Z/c over the given orders (each >= 2).

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


# Strict JSON reading, shared by every `from_json`: each check raises
# ValueError naming the key, and nothing (bool, float, str) is coerced.


def _json_object(name: str, data, keys: Sequence[str]) -> None:
    if not isinstance(data, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(data).__name__}")
    for key in keys:
        if key not in data:
            raise ValueError(f"{name} is missing key '{key}'")


def _json_list(key: str, value) -> list:
    if not isinstance(value, list):
        raise ValueError(f"'{key}' must be a list, got {type(value).__name__}")
    return value


def _json_ints(key: str, values) -> list[int]:
    for x in _json_list(key, values):
        if type(x) is not int:
            raise ValueError(f"'{key}' entries must be integers, got {x!r}")
    return values


class FinAbGroup:
    """Iso type of a finitely generated abelian group.

    `rank` free summands plus cyclic summands Z/torsion[i], where the torsion
    list is the invariant-factor chain: entries >= 2, each dividing the next.
    Two values compare equal exactly when the groups are isomorphic.

    >>> FinAbGroup(0, [2, 3])  # normalized on construction
    FinAbGroup(rank=0, torsion=(6,))
    >>> FinAbGroup(1, [15]) == FinAbGroup.from_cyclic_orders([3, 0, 5])
    True
    """

    __slots__ = ("rank", "torsion")

    def __init__(self, rank: int = 0, torsion: Iterable[int] = ()):
        if rank < 0:
            raise ValueError("negative rank")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "torsion", _normalize_torsion(torsion))

    def __setattr__(self, name, value):
        raise AttributeError("FinAbGroup is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def trivial(cls) -> "FinAbGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FinAbGroup":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, q: int) -> "FinAbGroup":
        """Z/q, with Z/0 = Z and Z/1 = 0.

        >>> FinAbGroup.cyclic(0).rank, FinAbGroup.cyclic(1).is_trivial()
        (1, True)
        """
        if q < 0:
            raise ValueError("negative cyclic order")
        if q == 0:
            return cls(1, ())
        if q == 1:
            return cls(0, ())
        return cls(0, (q,))

    @classmethod
    def from_cyclic_orders(cls, orders: Iterable[int]) -> "FinAbGroup":
        """Direct sum of Z/q over the given orders (0 meaning Z, 1 dropped)."""
        rank = 0
        torsion = []
        for q in orders:
            if q < 0:
                raise ValueError("negative cyclic order")
            if q == 0:
                rank += 1
            elif q > 1:
                torsion.append(q)
        return cls(rank, torsion)

    @classmethod
    def from_json(cls, data: dict) -> "FinAbGroup":
        """Strict inverse of `to_json`: a non-object, a missing key, a
        non-list or a non-int entry, or a torsion list that is not already an
        invariant-factor chain raises ValueError naming the key."""
        _json_object("group", data, ("rank", "torsion"))
        rank = data["rank"]
        if type(rank) is not int:
            raise ValueError(f"'rank' must be an integer, got {rank!r}")
        torsion = _json_ints("torsion", data["torsion"])
        if _normalize_torsion(c for c in torsion if c > 1) != tuple(torsion):
            raise ValueError(f"'torsion' must be an invariant-factor chain, got {torsion!r}")
        return cls(rank, torsion)

    # -- structure ---------------------------------------------------------

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def order(self) -> int | None:
        """Number of elements, or None when infinite."""
        if self.rank:
            return None
        return math.prod(self.torsion)

    def primary_decomposition(self) -> tuple[int, ...]:
        """Prime-power cyclic orders, sorted (prime ascending, power ascending).

        >>> FinAbGroup(0, [2, 12]).primary_decomposition()
        (2, 4, 3)
        """
        out = []
        primes: dict[int, list[int]] = {}
        for d in self.torsion:
            for p, e in _factorize(d).items():
                primes.setdefault(p, []).append(e)
        for p in sorted(primes):
            for e in sorted(primes[p]):
                out.append(p ** e)
        return tuple(out)

    def direct_sum(self, other: "FinAbGroup") -> "FinAbGroup":
        return FinAbGroup(self.rank + other.rank, self.torsion + other.torsion)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinAbGroup):
            return NotImplemented
        return self.rank == other.rank and self.torsion == other.torsion

    def __hash__(self) -> int:
        return hash((self.rank, self.torsion))

    def __repr__(self) -> str:
        return f"FinAbGroup(rank={self.rank}, torsion={self.torsion})"

    def __str__(self) -> str:
        return self.render()

    def render(self, primary: bool = False) -> str:
        """Human form: `Z^r (+) Z/d ...`, largest invariant factor first.

        >>> FinAbGroup(1, [3, 6]).render()
        'Z ⊕ Z/6 ⊕ Z/3'
        >>> FinAbGroup(0, [2, 12]).render(primary=True)
        'Z/2 ⊕ Z/4 ⊕ Z/3'
        >>> FinAbGroup.trivial().render()
        '0'
        """
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        cyclic = self.primary_decomposition() if primary else tuple(reversed(self.torsion))
        parts.extend(f"Z/{d}" for d in cyclic)
        return " ⊕ ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion)}


def group_of(m: IntegerMatrix) -> "FinAbGroup":
    """Iso type of the cokernel Z^rows / column-span(m).

    >>> group_of(IntegerMatrix.from_rows([[3]]))
    FinAbGroup(rank=0, torsion=(3,))
    >>> group_of(IntegerMatrix(2, 1)).rank
    2
    """
    factors = invariant_factors(m)
    return FinAbGroup(m.rows - len(factors), [d for d in factors if d >= 2])


def tensor(g: FinAbGroup, a: FinAbGroup) -> FinAbGroup:
    """Tensor product over Z, computed summand by summand.

    Z(x)Z = Z, Z(x)Z/q = Z/q, Z/d(x)Z/q = Z/gcd(d,q).

    >>> tensor(FinAbGroup.cyclic(4), FinAbGroup.cyclic(6))
    FinAbGroup(rank=0, torsion=(2,))
    """
    rank = g.rank * a.rank
    torsion: list[int] = []
    for q in a.torsion:
        torsion.extend([q] * g.rank)
    for d in g.torsion:
        torsion.extend([d] * a.rank)
    for d in g.torsion:
        for q in a.torsion:
            torsion.append(math.gcd(d, q))
    return FinAbGroup(rank, [t for t in torsion if t >= 2])


def tor1(g: FinAbGroup, a: FinAbGroup) -> FinAbGroup:
    """Tor_1 over Z: free summands contribute nothing, Tor(Z/d, Z/q) = Z/gcd(d,q).

    >>> tor1(FinAbGroup.free(1), FinAbGroup.cyclic(6)).is_trivial()
    True
    >>> tor1(FinAbGroup.cyclic(4), FinAbGroup.cyclic(6))
    FinAbGroup(rank=0, torsion=(2,))
    """
    torsion = [
        math.gcd(d, q) for d in g.torsion for q in a.torsion if math.gcd(d, q) >= 2
    ]
    return FinAbGroup(0, torsion)


def direct_sum(groups: Sequence[FinAbGroup]) -> FinAbGroup:
    """Direct sum of finitely many iso types (empty sum is trivial).

    A group is immutable, so a sum of one is that group, not a copy:

    >>> direct_sum([FinAbGroup.cyclic(2), FinAbGroup.cyclic(3)])
    FinAbGroup(rank=0, torsion=(6,))
    >>> z6 = FinAbGroup.cyclic(6)
    >>> direct_sum([z6]) is z6
    True
    """
    if len(groups) == 1:
        return groups[0]
    rank = sum(g.rank for g in groups)
    torsion: list[int] = []
    for g in groups:
        torsion.extend(g.torsion)
    return FinAbGroup(rank, torsion)


def _in_relations(order: int, x: int) -> bool:
    """Is x zero in Z/order (Z itself for order 0)?"""
    return x % order == 0 if order else x == 0


class PresentedGroup:
    """Diagonal presentation: the direct sum of Z/orders[i], one per generator.

    Order 0 is a free generator and order 1 a generator equal to zero.
    Unlike :class:`FinAbGroup` this carries actual elements (integer vectors
    of length `generators`), so homology classes and maps can live here.

    >>> p = PresentedGroup.from_diagonal([2, 0, 3])
    >>> p.group(), p.canonical_form([3, -1, 7])
    (FinAbGroup(rank=1, torsion=(6,)), (1, -1, 1))
    >>> p.relations.entries  # read-only: one column per nonzero order
    [2, 0, 0, 0, 0, 3]
    """

    __slots__ = ("orders",)

    def __init__(self, orders: Sequence[int] = ()):
        orders = tuple(orders)
        if any(q < 0 for q in orders):
            raise ValueError("negative cyclic order")
        self.orders = orders

    @classmethod
    def free(cls, rank: int) -> "PresentedGroup":
        return cls((0,) * rank)

    @classmethod
    def trivial(cls) -> "PresentedGroup":
        return cls()

    @classmethod
    def cyclic(cls, q: int) -> "PresentedGroup":
        return cls((q,))

    @classmethod
    def from_diagonal(cls, orders: Sequence[int]) -> "PresentedGroup":
        """One generator per listed order q (0 meaning a free generator)."""
        return cls(orders)

    @property
    def generators(self) -> int:
        return len(self.orders)

    @property
    def relations(self) -> IntegerMatrix:
        """The generators x r relation matrix, one column q·e_i per order q != 0."""
        cols = [j for j, q in enumerate(self.orders) if q]
        rel = IntegerMatrix(self.generators, len(cols))
        for c, j in enumerate(cols):
            rel._dicts[j][c] = self.orders[j]
        return rel

    def group(self) -> FinAbGroup:
        """Iso type of the presented group."""
        return FinAbGroup.from_cyclic_orders(self.orders)

    def canonical_form(self, x: Sequence[int]) -> tuple[int, ...]:
        """Canonical coordinates of the class of x; equal tuples iff equal classes.

        Coordinates of order 1 are dropped, torsion coordinates are reduced
        mod their order, free coordinates pass through exactly.
        """
        if len(x) != self.generators:
            raise ValueError(
                f"shape mismatch: {self.generators} generators, element of length {len(x)}"
            )
        return tuple(v % q if q else v for v, q in zip(x, self.orders) if q != 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PresentedGroup):
            return NotImplemented
        return self.orders == other.orders

    __hash__ = None

    def __repr__(self) -> str:
        return f"PresentedGroup(orders={self.orders})"


class GroupHom:
    """Homomorphism between presented groups, given on generators.

    `matrix` is target.generators x source.generators; compatibility (relations
    map into relations) is checked on construction, entry by entry: s·m[i][j]
    must vanish in Z/t for source order s and target order t.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: PresentedGroup, target: PresentedGroup, matrix: IntegerMatrix):
        if matrix.rows != target.generators or matrix.cols != source.generators:
            raise ValueError(
                f"shape mismatch: hom matrix {matrix.rows}x{matrix.cols} for "
                f"{source.generators} -> {target.generators} generators"
            )
        if not all(
            _in_relations(t, source.orders[j] * x)
            for t, row in zip(target.orders, matrix._dicts)
            for j, x in row.items()
        ):
            raise ValueError("homomorphism does not respect relations")
        self.source = source
        self.target = target
        self.matrix = matrix

    @classmethod
    def zero(cls, source: PresentedGroup, target: PresentedGroup) -> "GroupHom":
        return cls(source, target, IntegerMatrix(target.generators, source.generators))

    @classmethod
    def from_columns(cls, source: PresentedGroup, target: PresentedGroup,
                     cols: Sequence[Sequence[int]]) -> "GroupHom":
        """The map sending source generator j to the element cols[j] of `target`."""
        for j, col in enumerate(cols):
            if len(col) != target.generators:
                raise ValueError(f"shape mismatch: column {j} has {len(col)} entries "
                                 f"for {target.generators} target generators")
        rows = [[col[i] for col in cols] for i in range(target.generators)]
        return cls(source, target, IntegerMatrix.from_rows(rows, cols=len(cols)))

    def is_zero(self) -> bool:
        """Is this the zero map of presented groups (not just the zero matrix)?"""
        return all(
            _in_relations(t, x)
            for t, row in zip(self.target.orders, self.matrix._dicts)
            for x in row.values()
        )

    def __repr__(self) -> str:
        return f"GroupHom({self.source.generators} -> {self.target.generators})"


def middle_homology(f: GroupHom, g: GroupHom) -> FinAbGroup:
    """Iso type of ker(g)/im(f) at the node f.target = g.source.

    With T and M the relation matrices of g.target and of the node, this is
    H_1 of the free complex with d1 = [g | T] and d2 = [f | M ; -T⁻¹·g·(f | M)].
    T has full column rank, so ker d1 projects isomorphically onto
    ker g = {x : g·x in col-span T}, and d2's columns are the lifts of im f
    and of the node's relations.  H_1 is read off invariant factors as in
    `chains.homology_groups`.  A column of g·f outside col-span T (an inexact
    quotient, or a nonzero entry in a free row) means g·f is not zero.

    >>> Z, Z4 = PresentedGroup.free(1), PresentedGroup.cyclic(4)
    >>> two = GroupHom(Z, Z, IntegerMatrix.from_rows([[2]]))
    >>> quot = GroupHom(Z, PresentedGroup.cyclic(2), IntegerMatrix.from_rows([[1]]))
    >>> middle_homology(two, quot).is_trivial()
    True
    >>> middle_homology(GroupHom(Z, Z4, IntegerMatrix.from_rows([[2]])),
    ...                 GroupHom.zero(Z4, PresentedGroup.trivial()))  # (Z/4)/(2)
    FinAbGroup(rank=0, torsion=(2,))
    """
    if f.target != g.source:
        raise ValueError("mismatched node")
    image = IntegerMatrix.hstack([f.matrix, g.source.relations])
    lower = []
    for t, row in zip(g.target.orders, g.matrix.matmul(image)._dicts):
        if not all(_in_relations(t, x) for x in row.values()):
            raise ValueError("composite nonzero")
        if t:
            lower.append({j: -x // t for j, x in row.items()})
    d1 = IntegerMatrix.hstack([g.matrix, g.target.relations])
    d2 = IntegerMatrix.vstack([image, IntegerMatrix._wrap(len(lower), image.cols, lower)])
    image_factors, factors = sweep_invariant_factors([d1, d2])  # d1·d2 = 0, checked above
    free = d1.cols - len(image_factors) - len(factors)
    return FinAbGroup(free, [d for d in factors if d >= 2])
