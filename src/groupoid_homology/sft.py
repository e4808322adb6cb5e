"""Closed-form homology for full shifts and the two-shift family.

The full shift on n letters has H_0 = Z/(n-1) and nothing above; the family
member F(n, m) is the disjoint union of the n-shift, a single point, and the
m-shift, so its homology is the degreewise direct sum.  With Z/q coefficients
the groups collapse to gcds, which makes exhaustive tables over (n, m, q)
cheap; `classify` inverts those tables by prime-power probes and
`collision_search` hunts for distinct families with identical tables.

`sft_matrix_homology` is the general transition-matrix route
(cokernel/kernel of I - A^T); it is used here to cross-check the closed
forms against the all-ones matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .abelian import FinAbGroup, direct_sum, group_of
from .matrix import IntegerMatrix


@dataclass(frozen=True, order=True)
class FamilySpec:
    """Parameters of a family member: full shifts on n and m letters."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 2 or self.m < 2:
            raise ValueError(f"family parameters must be at least 2, got ({self.n}, {self.m})")

    @property
    def unordered(self) -> tuple[int, int]:
        return (min(self.n, self.m), max(self.n, self.m))


def full_shift_homology(n: int, max_degree: int = 4) -> list[FinAbGroup]:
    """[H_0, ..., H_max_degree] of the full shift on n letters: [Z/(n-1), 0, ...]."""
    if n < 2:
        raise ValueError(f"full shift needs at least 2 letters, got {n}")
    out = [FinAbGroup.cyclic(n - 1)]
    out.extend(FinAbGroup.trivial() for _ in range(max_degree))
    return out


def point_homology(max_degree: int = 4) -> list[FinAbGroup]:
    """[Z, 0, ..., 0]: homology of the one-unit groupoid."""
    out = [FinAbGroup.free(1)]
    out.extend(FinAbGroup.trivial() for _ in range(max_degree))
    return out


def full_shift_matrix(n: int) -> IntegerMatrix:
    """The all-ones transition matrix of the full shift on n letters."""
    return IntegerMatrix.from_rows([[1] * n for _ in range(n)])


def sft_matrix_homology(a: IntegerMatrix | Sequence[Sequence[int]]) -> tuple[FinAbGroup, FinAbGroup]:
    """(H_0, H_1) of the shift groupoid of transition matrix A.

    H_0 is the cokernel and H_1 the kernel of I - A^T; the matrix is square,
    so H_1 is free of H_0's rank.  A must be square and nonnegative with no
    zero row or column (otherwise the shift space is degenerate).
    """
    if not isinstance(a, IntegerMatrix):
        a = IntegerMatrix.from_rows(a)
    if a.rows != a.cols:
        raise ValueError(f"degenerate matrix: {a.rows}x{a.cols} is not square")
    for i in range(a.rows):
        for j in range(a.cols):
            if a[i, j] < 0:
                raise ValueError(f"degenerate matrix: negative entry at ({i}, {j})")
    for i in range(a.rows):
        if all(a[i, j] == 0 for j in range(a.cols)):
            raise ValueError(f"degenerate matrix: zero row {i}")
    for j in range(a.cols):
        if all(a[i, j] == 0 for i in range(a.rows)):
            raise ValueError(f"degenerate matrix: zero column {j}")
    m = IntegerMatrix.from_rows([[int(i == j) - a[j, i] for j in range(a.rows)] for i in range(a.rows)])
    h0 = group_of(m)
    h1 = FinAbGroup.free(h0.rank)
    return h0, h1


def family_integral(spec: FamilySpec, max_degree: int = 4) -> list[FinAbGroup]:
    """Integral homology of F(n, m), assembled degreewise from the three pieces."""
    left = full_shift_homology(spec.n, max_degree)
    mid = point_homology(max_degree)
    right = full_shift_homology(spec.m, max_degree)
    return [direct_sum([left[k], mid[k], right[k]]) for k in range(max_degree + 1)]


@dataclass(frozen=True)
class GcdRow:
    """One finite-coefficient table row: H_0 and H_1 of F(n, m) with Z/q."""

    q: int
    h0: FinAbGroup
    h1: FinAbGroup

    def to_json(self) -> dict:
        return {"q": self.q, "h0": self.h0.to_json(), "h1": self.h1.to_json()}


def family_mod(spec: FamilySpec, q: int) -> GcdRow:
    """H_*(F(n, m); Z/q): gcd closed forms, trivial above degree 1."""
    if q < 1:
        raise ValueError(f"coefficient modulus must be at least 1, got {q}")
    gn = math.gcd(spec.n - 1, q)
    gm = math.gcd(spec.m - 1, q)
    h0 = FinAbGroup.from_cyclic_orders([q, gn, gm])
    h1 = FinAbGroup.from_cyclic_orders([gn, gm])
    return GcdRow(q=q, h0=h0, h1=h1)


@dataclass(frozen=True)
class GcdTable:
    """Finite-coefficient homology rows of one family member for q = 1..qmax."""

    spec: FamilySpec
    rows: tuple[GcdRow, ...]

    @classmethod
    def build(cls, spec: FamilySpec, qmax: int) -> "GcdTable":
        if qmax < 1:
            raise ValueError(f"table bound qmax must be at least 1, got {qmax}")
        return cls(spec=spec, rows=tuple(family_mod(spec, q) for q in range(1, qmax + 1)))

    def to_json(self) -> list[dict]:
        return [row.to_json() for row in self.rows]

    def h1_signature(self) -> tuple:
        """Hashable iso-type sequence of the H_1 column (collision fingerprint)."""
        return tuple((row.h1.rank, row.h1.torsion) for row in self.rows)


def family_h1_oracle(spec: FamilySpec) -> Callable[[int], FinAbGroup]:
    """The q -> H_1(F(n, m); Z/q) function, as handed to `classify`."""
    return lambda q: family_mod(spec, q).h1


def probe_schedule(bound: int) -> list[int]:
    """Prime powers p^l with p <= bound-1 and p^l <= 2^floor(log2(bound))."""
    top = max(bound - 1, 1)
    sieve = [True] * (top + 1)
    primes = []
    for p in range(2, top + 1):
        if sieve[p]:
            primes.append(p)
            for k in range(p * p, top + 1, p):
                sieve[k] = False
    max_exp = max(int(math.log2(bound)), 1) if bound >= 2 else 1
    schedule = []
    for p in primes:
        for exp in range(1, max_exp + 1):
            schedule.append(p**exp)
    return sorted(schedule)


def classify(h1_oracle: Callable[[int], FinAbGroup], bound: int) -> list[tuple[int, int]]:
    """All unordered pairs {n, m} <= bound matching the oracle on every probe.

    The probes are prime powers; H_1(F(n, m); Z/p^l) = Z/p^min(a,l) + Z/p^min(b,l)
    where a, b are the p-adic valuations of n-1 and m-1, so the probe data
    pins down the truncated valuation pair and nothing more.  Distinct
    families can share all probe data; every consistent pair is returned.
    """
    if bound < 2:
        raise ValueError(f"search bound must be at least 2, got {bound}")
    schedule = probe_schedule(bound)
    observed = [(q, h1_oracle(q)) for q in schedule]
    candidates = []
    for n in range(2, bound + 1):
        for m in range(n, bound + 1):
            spec = FamilySpec(n, m)
            if all(family_mod(spec, q).h1 == grp for q, grp in observed):
                candidates.append((n, m))
    if not candidates:
        raise ValueError(f"no candidate <= {bound} matches the oracle data")
    return candidates


def collision_search(bound: int, qmax: int) -> list[tuple[FamilySpec, FamilySpec]]:
    """Distinct family members <= bound with identical H_1 tables for q <= qmax.

    Pairs are canonically ordered (each spec has n <= m; pairs sorted), so the
    output is deterministic, symmetric, and irreflexive.
    """
    specs = [FamilySpec(n, m) for n in range(2, bound + 1) for m in range(n, bound + 1)]
    by_signature: dict[tuple, list[FamilySpec]] = {}
    for spec in specs:
        signature = GcdTable.build(spec, qmax).h1_signature()
        by_signature.setdefault(signature, []).append(spec)
    collisions = []
    for group in by_signature.values():
        group.sort()
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                collisions.append((group[i], group[j]))
    collisions.sort()
    return collisions
