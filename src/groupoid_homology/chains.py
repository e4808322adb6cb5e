"""Free chain complexes over Z with validated boundaries, and their homology.

A complex built to max degree N carries boundary matrices up to ∂_N only, so
homology is *trusted* in degrees 0..N-1: H_N would need the missing ∂_{N+1}.
Degree-(N) queries fail loudly rather than report a group truncation could
falsify.

Integral and Z/q homology take one lattice route, never row-reducing over
Z/q (not a field for composite q): H_n is K/B for the cycle lattice
K = {v : ∂_n v ∈ qZ} and the enlarged image B = im(∂_{n+1}) + qZ, with
q = 0 for integral homology.  `homology_results` gives representatives: one
recorded column reduction of each [∂_n | qI] with clearing yields echelon
bases of K and B, so coordinates come by back-substitution, and one small
Smith form of B's coordinates gives the presentation.  `homology_groups` is
the sparse route to iso types alone, integral or Z/q: one
`sweep_invariant_factors` over ∂_1, ∂_2, ... or over the mapping cone of q.
"""

from __future__ import annotations

from typing import Sequence

from .abelian import FinAbGroup, PresentedGroup, _json_ints, _json_list, _json_object
from .matrix import (
    IntegerMatrix,
    SparseMatrix,
    echelon_coordinates,
    reduce_columns,
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
    ker(∂_n)/im(∂_{n+1}).  Built by `homology_results` from a basis of K and
    an echelon basis of B.  K's basis is put in echelon form too, so a chain's
    coordinates come by back-substitution, and a chain that does not reduce
    to zero is not a cycle.  B's coordinates that are a unit vector only
    delete a generator; the rest go to one small Smith form with U and U⁻¹,
    which gives the diagonal presentation (invariant factors 1 dropped).

    `cycle_reps[i]` is an integer chain whose class is the i-th generator of
    `presentation`; `class_coords` expresses any further cycle over those
    generators (raising "not a cycle" on chains outside K).
    `bounding_chain` fills a chain of B from the reduction's records.
    """

    __slots__ = ("degree", "modulus", "group", "presentation", "cycle_reps",
                 "_dims", "_basis", "_image", "_fillers", "_uw", "_orders")

    def __init__(self, n: int, q: int, dims: Sequence[int], cycles: list[dict[int, int]],
                 image: dict[int, dict[int, int]], fillers: dict[int, dict[int, int]] | None):
        self.degree = n
        self.modulus = q
        self._dims = (dims[n], dims[n + 1])
        self._image = image
        self._fillers = fillers
        pivots, _ = reduce_columns(cycles)
        self._basis = {low: cycles[k] for low, k in pivots.items()}
        coords = [echelon_coordinates(self._basis, dict(col)) for col in image.values()]
        if None in coords:
            raise AssertionError("image lattice escapes the cycle lattice")
        units = {low for x in coords if len(x) == 1 for low, v in x.items() if v in (1, -1)}
        rest = [low for low in sorted(self._basis) if low not in units]
        others = [x for x in coords if not x.keys() <= units]
        rel = smith_normal_form(
            IntegerMatrix._wrap([[x.get(low, 0) for x in others] for low in rest], len(others)),
            transforms=("U", "uinv"),
        )
        orders = rel.diag + [0] * (len(rest) - len(rel.diag))
        kept = [i for i, d in enumerate(orders) if d != 1]
        self._uw = [dict(zip(rest, rel.U.row(i))) for i in kept]
        self._orders = [orders[i] for i in kept]
        self.group = FinAbGroup.from_cyclic_orders(self._orders)
        self.presentation = PresentedGroup.from_diagonal(self._orders)
        lattice = [[self._basis[low].get(j, 0) for low in rest] for j in range(dims[n])]
        gens = IntegerMatrix._wrap(lattice, len(rest)).matmul(rel.uinv)
        self.cycle_reps = [gens.column(i) for i in kept]

    def _sparse(self, chain: Sequence[int]) -> dict[int, int]:
        if len(chain) != self._dims[0]:
            raise ValueError(
                f"shape mismatch: chain of length {len(chain)} in ambient dimension {self._dims[0]}"
            )
        return {j: v for j, v in enumerate(chain) if v}

    def class_coords(self, chain: Sequence[int]) -> tuple[int, ...]:
        """Coordinates of a cycle's class over the kept generators.

        Torsion coordinates come reduced mod their order, free ones exact;
        two cycles are homologous iff their tuples agree.
        """
        x = echelon_coordinates(self._basis, self._sparse(chain))
        if x is None:
            raise ValueError("not a cycle")
        y = (sum(u * x.get(low, 0) for low, u in uw.items()) for uw in self._uw)
        return tuple(c % d if d else c for c, d in zip(y, self._orders))

    def same_class(self, chain_a: Sequence[int], chain_b: Sequence[int]) -> bool:
        return self.class_coords(chain_a) == self.class_coords(chain_b)

    def bounding_chain(self, chain: Sequence[int]) -> list[int] | None:
        """x with ∂_{n+1} x = chain (mod q), or None when chain is not in B: the
        records of B's basis, summed with chain's coefficients over it.  The
        reduction records them below its top degree only."""
        if self._fillers is None:
            raise ValueError(f"no fillers recorded in degree {self.degree + 1}, above the top degree")
        x = echelon_coordinates(self._image, self._sparse(chain))
        if x is None:
            return None
        out = [0] * self._dims[1]
        for low, c in x.items():
            for j, v in self._fillers[low].items():
                if j < self._dims[1]:  # the block of qI columns is dropped
                    out[j] += c * v
        return out

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
    return homology_results(complex_, 0, n)[n]


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
    return homology_results(complex_, q, n)[n]


def homology_results(complex_: FreeChainComplex, q: int = 0, top: int | None = None) -> list[HomologyResult]:
    """H_0..H_top (default: every trusted degree) with representatives, Z or Z/q coefficients.

    The twin of `homology_groups`.  Each A_m = [∂_m | qI] (∂_m when q = 0)
    is reduced once by `reduce_columns`, from m = top+1 down to 0, recording
    the column operations for m <= top: the zero columns' records give a basis
    of K_m = {v : ∂_m v ∈ qZ}, the pivots an echelon basis of B_{m-1}.
    Clearing: a pivot of A_{m+1} with a +-1 low j is a cycle, so putting it in
    place of column j of ∂_m's domain is a change of basis, unitriangular in
    the lows; column j is skipped and the pivot joins K_m's basis.  At a
    non-unit low that is no change of basis, so the column stays.  Each cleared
    cycle is checked, since nothing else reads the skipped columns.
    """
    _check_coefficients(complex_, q)
    if top is None:
        top = complex_.max_degree - 1
    else:
        _check_trusted(complex_, top)
    dims = complex_.dims
    results = []
    image: dict[int, dict[int, int]] = {}  # B_m's echelon basis, by low
    fillers = None  # the records of that basis
    for m in range(top + 1, -1, -1):
        b = complex_.boundaries[m]
        cols: list[dict[int, int]] = [{} for _ in range(b.cols)]
        for i, row in enumerate(b._dicts):
            for j, v in row.items():
                cols[j][i] = v
        cleared = {j: p for j, p in image.items() if p[j] in (1, -1)}
        for j, p in cleared.items():
            below: dict[int, int] = {}
            for k, c in p.items():
                for i, v in cols[k].items():
                    below[i] = below.get(i, 0) + c * v
            if any(v % q for v in below.values()) if q else any(below.values()):
                raise ValueError(
                    f"boundary square nonzero at degree {m + 1}: cleared cycle {j} is not a cycle"
                )
        if q:
            cols += [{i: q} for i in range(b.rows)]
        records = [{k: 1} for k in range(len(cols))] if m <= top else None
        pivots, zeros = reduce_columns(cols, records, skip=cleared)
        if records is not None:
            cycles = [*cleared.values(), *({k: v for k, v in records[z].items() if k < b.cols}
                                           for z in zeros)]
            results.append(HomologyResult(m, q, dims, cycles, image, fillers))
            fillers = {low: records[k] for low, k in pivots.items()}
        image = {low: cols[k] for low, k in pivots.items()}
    return results[::-1]


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
