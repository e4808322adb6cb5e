"""Free chain complexes over Z with validated boundaries, and their homology.

A complex built to max degree N carries boundary matrices up to ∂_N only, so
homology is *trusted* in degrees 0..N-1: H_N would need the missing ∂_{N+1}.
Degree-(N) queries fail loudly rather than report a group truncation could
falsify.

Integral and Z/q homology take one lattice route, never row-reducing over
Z/q (not a field for composite q): H_n is K/B for the cycle lattice
K = {v : ∂_n v ∈ qZ} and the enlarged image B = im(∂_{n+1}) + qZ, with
q = 0 for integral homology.  One Smith decomposition of [∂_n | qI] gives a
basis of K and, through V⁻¹, the coordinates of B and of any cycle over it;
one more, of a column-reduced basis of B's coordinates, gives the
presentation.  That route is for representatives; `homology_groups` is the
sparse route to iso types alone, integral or Z/q: one
`sweep_invariant_factors` over ∂_1, ∂_2, ... or over the mapping cone of q.
"""

from __future__ import annotations

from typing import Sequence

from .abelian import FinAbGroup, PresentedGroup, _json_ints, _json_list, _json_object
from .matrix import (
    IntegerMatrix,
    SparseMatrix,
    column_lattice_basis,
    smith_normal_form,
    sweep_invariant_factors,
)


class FreeChainComplex:
    """Chain complex of free modules in degrees 0..max_degree.

    `boundaries[n]` maps degree n to degree n-1 and has shape
    dims[n-1] x dims[n]; `boundaries[0]` is the 0 x dims[0] zero map.  Every
    boundary is stored as a `SparseMatrix`: an `IntegerMatrix` handed to the
    constructor is converted once, and code that needs dense arithmetic calls
    `to_dense()`.  ∂∘∂ = 0 is checked on construction by a sparse product.
    `basis_labels`, when present, names the basis of each degree (used by
    groupoid nerves to tag tuples); labels are opaque to this module.

    `modulus` 0 means a complex over Z; q >= 1 means coefficients in Z/q with
    entries stored as canonical residues, where ∂∘∂ need only vanish mod q.
    """

    __slots__ = ("dims", "boundaries", "basis_labels", "modulus")

    def __init__(
        self,
        dims: Sequence[int],
        boundaries: Sequence[SparseMatrix | IntegerMatrix],
        basis_labels: Sequence[Sequence[object]] | None = None,
        modulus: int = 0,
    ):
        if modulus < 0:
            raise ValueError("negative modulus")
        self.dims = list(dims)
        self.boundaries = [
            b if isinstance(b, SparseMatrix) else SparseMatrix.from_dense(b) for b in boundaries
        ]
        self.basis_labels = [list(l) for l in basis_labels] if basis_labels is not None else None
        self.modulus = modulus
        self.validate()

    @property
    def max_degree(self) -> int:
        return len(self.dims) - 1

    def validate(self) -> None:
        """Check shape coherence and ∂∘∂ = 0; raise ValueError otherwise."""
        if not self.dims:
            raise ValueError("shape mismatch: empty complex")
        if any(d < 0 for d in self.dims):
            raise ValueError("shape mismatch: negative dimension")
        if len(self.boundaries) != len(self.dims):
            raise ValueError(
                f"shape mismatch: {len(self.dims)} degrees but {len(self.boundaries)} boundary maps"
            )
        if self.boundaries[0].rows != 0 or self.boundaries[0].cols != self.dims[0]:
            raise ValueError("shape mismatch: boundary 0 must be 0 x dims[0]")
        for n in range(1, len(self.dims)):
            b = self.boundaries[n]
            if b.rows != self.dims[n - 1] or b.cols != self.dims[n]:
                raise ValueError(
                    f"shape mismatch: boundary {n} is {b.rows}x{b.cols}, "
                    f"expected {self.dims[n - 1]}x{self.dims[n]}"
                )
        if self.basis_labels is not None:
            if len(self.basis_labels) != len(self.dims) or any(
                len(l) != d for l, d in zip(self.basis_labels, self.dims)
            ):
                raise ValueError("shape mismatch: basis labels do not match dims")
        for n in range(2, len(self.dims)):
            square = self.boundaries[n - 1].matmul(self.boundaries[n])
            if self.modulus >= 1:
                square = square.mod(self.modulus)
            if not square.is_zero():
                witness = min(j for row in square._dicts for j in row)
                raise ValueError(
                    f"boundary square nonzero at degree {n}: column {witness} "
                    f"maps to {square.column(witness)}"
                )

    @classmethod
    def zero_boundaries(cls, dims: Sequence[int]) -> "FreeChainComplex":
        """Complex with the given dims and all-zero boundary maps."""
        dims = list(dims)
        boundaries = [SparseMatrix(dims[n - 1] if n else 0, dims[n]) for n in range(len(dims))]
        return cls(dims, boundaries)

    def to_json(self) -> dict:
        out = {
            "dims": list(self.dims),
            "boundaries": [b.entries for b in self.boundaries],
        }
        if self.modulus:
            out["modulus"] = self.modulus
        return out

    @classmethod
    def from_json(cls, data: dict) -> "FreeChainComplex":
        """Strict inverse of `to_json`: a non-object, a missing key, a
        non-list or a non-int entry raises ValueError naming the key."""
        _json_object("chain complex", data, ("dims", "boundaries"))
        dims = _json_ints("dims", data["dims"])
        raw = _json_list("boundaries", data["boundaries"])
        if len(raw) != len(dims):
            raise ValueError("shape mismatch: boundary count does not match dims")
        modulus = data.get("modulus", 0)
        if type(modulus) is not int:
            raise ValueError(f"'modulus' must be an integer, got {modulus!r}")
        boundaries = [
            IntegerMatrix(dims[n - 1] if n else 0, dims[n], _json_ints("boundaries", flat))
            for n, flat in enumerate(raw)
        ]
        return cls(dims, boundaries, modulus=modulus)

    def __repr__(self) -> str:
        return f"FreeChainComplex(dims={self.dims})"


def shift_sum(complexes: Sequence[FreeChainComplex]) -> FreeChainComplex:
    """Degreewise direct sum with block-diagonal boundaries.

    All summands must share a truncation depth; homology of the sum is the
    direct sum of the homologies, degree by degree.
    """
    complexes = list(complexes)
    if not complexes:
        raise ValueError("empty direct sum of complexes")
    depth = complexes[0].max_degree
    if any(c.max_degree != depth for c in complexes):
        raise ValueError("mixed truncation depth")
    modulus = complexes[0].modulus
    if any(c.modulus != modulus for c in complexes):
        raise ValueError("modulus mismatch in direct sum")
    dims = [sum(c.dims[n] for c in complexes) for n in range(depth + 1)]
    boundaries = [SparseMatrix.block_diag([c.boundaries[n] for c in complexes]) for n in range(depth + 1)]
    labels = None
    if all(c.basis_labels is not None for c in complexes):
        labels = [
            [(i, lab) for i, c in enumerate(complexes) for lab in c.basis_labels[n]]
            for n in range(depth + 1)
        ]
    return FreeChainComplex(dims, boundaries, labels, modulus=modulus)


class HomologyResult:
    """Homology K/B in one degree: iso type, presentation, and representatives.

    `modulus` is 0 for integral homology and q >= 1 for Z/q coefficients.
    K = {v : ∂_n v ∈ qZ} and B = im(∂_{n+1}) + qZ^{dims[n]}; q = 0 gives
    ker(∂_n)/im(∂_{n+1}).  One Smith form U·A·V = D of A = [∂_n | qI]
    (A = ∂_n when q = 0) does all the lattice work: the last columns of V,
    from column rank(A) on, are a basis of ker A, and their first dims[n] rows
    are a basis of K (the lower block of an element of ker A is -∂v/q,
    determined by v).  A chain w lifts to (w ; -∂_n w/q) (w itself when
    q = 0), which lies in ker A exactly when the first rank(A) rows of V⁻¹·lift
    vanish; the remaining rows are its coordinates over that basis.  Those of
    B's generators, k x r with r >> k, are column-reduced to a basis of their
    lattice (keeping Z^k/B), whose Smith form, with U and U⁻¹ only, gives the
    diagonal presentation; generators with invariant factor 1 are dropped.

    `cycle_reps[i]` is an integer chain whose class is the i-th generator of
    `presentation`; `class_coords` expresses any further cycle over those
    generators (raising "not a cycle" on chains outside K).
    """

    __slots__ = ("degree", "modulus", "group", "presentation", "cycle_reps",
                 "_boundary", "_rank", "_vinv", "_uw", "_kept", "_orders")

    def __init__(self, complex_: FreeChainComplex, n: int, q: int):
        self.degree = n
        self.modulus = q
        boundary = complex_.boundaries[n].to_dense()
        relations = complex_.boundaries[n + 1].to_dense()
        augmented = boundary
        if q:
            augmented = IntegerMatrix.hstack([boundary, IntegerMatrix.identity(boundary.rows) * q])
            relations = IntegerMatrix.hstack([relations, IntegerMatrix.identity(boundary.cols) * q])
        snf = smith_normal_form(augmented, transforms=("V", "vinv"))
        self._boundary = boundary
        self._rank = snf.rank
        self._vinv = snf.vinv
        coords = self._coords(relations)
        if coords is None:
            raise AssertionError("image lattice escapes the cycle lattice")
        k = coords.rows
        kernel_rows = snf.V._rows[:boundary.cols]
        lattice = IntegerMatrix.from_rows([row[self._rank:] for row in kernel_rows], cols=k)
        rel = smith_normal_form(column_lattice_basis(coords), transforms=("U", "uinv"))
        orders = rel.diag + [0] * (k - len(rel.diag))
        self._uw = rel.U
        self._kept = [i for i in range(k) if orders[i] != 1]
        self._orders = [orders[i] for i in self._kept]
        gen_matrix = lattice.matmul(rel.uinv)
        self.group = FinAbGroup.from_cyclic_orders(self._orders)
        self.presentation = PresentedGroup.from_diagonal(self._orders)
        self.cycle_reps = [gen_matrix.column(i) for i in self._kept]

    def _coords(self, chains: IntegerMatrix) -> IntegerMatrix | None:
        """Coordinates over the basis of K of each column, or None if one is not in K."""
        if self.modulus:
            # an inexact quotient leaves the lift outside ker A, which the
            # test on the first rank(A) rows of V⁻¹·lift then catches
            below = self._boundary.matmul(chains)
            lower = [[-x // self.modulus for x in row] for row in below._rows]
            lower = IntegerMatrix.from_rows(lower, cols=chains.cols)
            chains = IntegerMatrix.vstack([chains, lower])
        y = self._vinv.matmul(chains)
        if any(any(row) for row in y._rows[:self._rank]):
            return None
        return IntegerMatrix.from_rows(y._rows[self._rank:], cols=chains.cols)

    def class_coords(self, chain: Sequence[int]) -> tuple[int, ...]:
        """Coordinates of a cycle's class over the kept generators.

        Torsion coordinates come reduced mod their order, free ones exact;
        two cycles are homologous iff their tuples agree.
        """
        if len(chain) != self._boundary.cols:
            raise ValueError(
                f"shape mismatch: chain of length {len(chain)} in ambient dimension {self._boundary.cols}"
            )
        x = self._coords(IntegerMatrix.column_vector(chain))
        if x is None:
            raise ValueError("not a cycle")
        y = self._uw.mul_vector(x.column(0))
        return tuple(
            y[i] % self._orders[pos] if self._orders[pos] else y[i]
            for pos, i in enumerate(self._kept)
        )

    def same_class(self, chain_a: Sequence[int], chain_b: Sequence[int]) -> bool:
        return self.class_coords(chain_a) == self.class_coords(chain_b)

    def __repr__(self) -> str:
        coeff = "Z" if self.modulus == 0 else f"Z/{self.modulus}"
        return f"HomologyResult(degree={self.degree}, coefficients={coeff}, group={self.group})"


def _check_coefficients(complex_: FreeChainComplex, q: int) -> None:
    if q < 0:
        raise ValueError("negative modulus")
    if complex_.modulus not in (0, q):
        raise ValueError("integral homology needs a complex over Z, not Z/q" if q == 0 else
                         f"modulus mismatch: complex over Z/{complex_.modulus}, homology over Z/{q}")


def _check_trusted(complex_: FreeChainComplex, n: int) -> None:
    if n < 0:
        raise ValueError("negative degree")
    if n > complex_.max_degree - 1:
        raise ValueError(
            f"degree exceeds trusted truncation: degree {n} needs boundary {n + 1}, "
            f"complex is truncated at {complex_.max_degree}"
        )


def homology_int(complex_: FreeChainComplex, n: int) -> HomologyResult:
    """Integral homology ker(∂_n)/im(∂_{n+1}) with generating representatives."""
    _check_coefficients(complex_, 0)
    _check_trusted(complex_, n)
    return HomologyResult(complex_, n, 0)


def homology_mod(complex_: FreeChainComplex, q: int, n: int) -> HomologyResult:
    """Homology with Z/q coefficients, K/B with K = {v : ∂_n v ∈ qZ}.

    B = im(∂_{n+1}) + qZ^{dims[n]}, so the result is finite of exponent
    dividing q.  q = 0 falls back to integral homology; q = 1 yields the
    trivial group.  With ∂_1 = (2) and ∂_2 = 0, H_1(;Z/4) is Tor(Z/2, Z/4),
    carried by the chain 2 whose boundary 4 vanishes only mod 4:

    >>> c = FreeChainComplex([1, 1, 1], [IntegerMatrix.zeros(0, 1),
    ...     IntegerMatrix.from_rows([[2]]), IntegerMatrix.zeros(1, 1)])
    >>> h = homology_mod(c, 4, 1)
    >>> str(h.group), h.cycle_reps, h.class_coords([6])
    ('Z/2', [[2]], (1,))
    >>> h.class_coords([1])
    Traceback (most recent call last):
        ...
    ValueError: not a cycle
    """
    _check_coefficients(complex_, q)
    if q == 0:
        return homology_int(complex_, n)
    _check_trusted(complex_, n)
    return HomologyResult(complex_, n, q)


def homology_group(complex_: FreeChainComplex, n: int, q: int = 0) -> FinAbGroup:
    """Iso type of H_n with Z (q = 0) or Z/q coefficients: `homology_groups` up to n.

    `matrix.sweep_invariant_factors` gives the pivot rule and the condition
    for clearing.  The sweep covers every degree up to n (for q >= 1, n + 1
    cones and their n products), so a low degree costs a little more than
    factoring its own two matrices would, and the top degree much less.

    >>> c = FreeChainComplex([1, 1, 1], [IntegerMatrix.zeros(0, 1),
    ...     IntegerMatrix.from_rows([[2]]), IntegerMatrix.zeros(1, 1)])
    >>> str(homology_group(c, 1, 4))  # ∂_1 = (2): Tor(Z/2, Z/4)
    'Z/2'
    """
    return homology_groups(complex_, q, n)[n]


def homology_groups(complex_: FreeChainComplex, q: int = 0, top: int | None = None) -> list[FinAbGroup]:
    """Iso types of H_0..H_top (default: every trusted degree), Z or Z/q coefficients.

    One `sweep_invariant_factors` factors each matrix once.  q = 0 sweeps
    ∂_1..∂_{top+1}: H_n has rank dims[n] - rank ∂_n - rank ∂_{n+1} and the
    nonunit factors of ∂_{n+1} as torsion.  q >= 1 sweeps the mapping cone
    of q, a complex over Z with boundaries F_n = [[-∂_n, -∂_n∂_{n+1}/q],
    [qI, ∂_{n+1}]] (rows C_{n-1} then C_n, columns C_n then C_{n+1}), so
    F_{n-1}·F_n = 0 exactly, also over Z/q.  H_n(C;Z/q) is then the nonunit
    factors of F_n, whose rank must be dims[n]: chain level, no Tor formula.
    Clearing needs each F_{n-1}·F_n = 0, so it is checked here: a nonzero one
    raises over Z/q and, over Z, stops the clearing so the rank check fails.
    """
    _check_coefficients(complex_, q)
    if top is None:
        top = complex_.max_degree - 1
    else:
        _check_trusted(complex_, top)
    dims = complex_.dims
    if not q:
        factors = sweep_invariant_factors(complex_.boundaries[1:top + 2])
        ranks = [0] + [len(f) for f in factors]
        return [
            FinAbGroup(dims[n] - ranks[n] - ranks[n + 1], [d for d in factors[n] if d >= 2])
            for n in range(top + 1)
        ]
    cones = _cones(complex_, q, top)
    runs: list[list[SparseMatrix]] = [[]]
    for n, cone in enumerate(cones):
        if n and not cones[n - 1].matmul(cone).is_zero():
            if complex_.modulus:
                raise ValueError(f"boundary square nonzero mod {q} at degree {n + 1}")
            runs.append([])
        runs[-1].append(cone)
    factors = [f for run in runs for f in sweep_invariant_factors(run)]
    for n, f in enumerate(factors):
        if len(f) != dims[n]:
            raise ValueError(
                f"boundary square nonzero: the cone of {q} in degree {n} has rank "
                f"{len(f)}, not dims[{n}] = {dims[n]}"
            )
    return [FinAbGroup(0, [d for d in f if d >= 2]) for f in factors]


def _cones(complex_: FreeChainComplex, q: int, top: int) -> list[SparseMatrix]:
    """The cone's F_0..F_top.  Over Z the quotient block is zero (∂∘∂ = 0 on
    construction); over Z/q any integer lift will do, and the symmetric one
    keeps -1 a unit pivot; the floor quotient is exact unless F_{n-1}·F_n != 0.
    """
    lifts = [
        SparseMatrix._wrap(b.rows, b.cols, [{j: v - q if 2 * v > q else v for j, v in r.items()}
                                            for r in b._dicts])
        if complex_.modulus else b
        for b in complex_.boundaries[:top + 2]
    ]
    cones = []
    for here, above in zip(lifts, lifts[1:]):
        square = here.matmul(above)._dicts if complex_.modulus else [{}] * here.rows
        shift = here.cols
        top_rows = [
            {**{j: -v for j, v in r.items()}, **{shift + j: x for j, v in s.items() if (x := -v // q)}}
            for r, s in zip(here._dicts, square)
        ]
        bottom = [{i: q, **{shift + j: v for j, v in r.items()}} for i, r in enumerate(above._dicts)]
        cones.append(SparseMatrix._wrap(here.rows + here.cols, shift + above.cols, top_rows + bottom))
    return cones
