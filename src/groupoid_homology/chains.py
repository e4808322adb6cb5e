"""Free chain complexes over Z with validated boundaries, and their homology.

A complex built to max degree N carries boundary matrices up to ∂_N only, so
homology is *trusted* in degrees 0..N-1: H_N would need the missing ∂_{N+1}.
Degree-(N) queries fail loudly rather than report a group truncation could
falsify.

Complexes are over Z only.  Integral and Z/q homology take one lattice
route on the integral complex, never row-reducing over Z/q (not a field for
composite q): H_n is K/B for the cycle lattice K = {v : ∂_n v ∈ qZ} and the
enlarged image B = im(∂_{n+1}) + qZ, with q = 0 for integral homology.
`homology_results` gives representatives in two stages.  The lattice stage
(`_lattices`), one recorded column reduction of each [∂_n | qI] with
clearing, yields a basis of K and an echelon basis of B per degree; then
`HomologyResult` puts K's basis in echelon form, so coordinates come by
back-substitution, and one small sparse Smith form of B's coordinates gives
the presentation.  `mv` runs the lattice stage once on the ambient complex and
reads each piece's lattices off it.  `homology_groups` is the sparse route
to iso types alone, integral or Z/q: one `sweep_invariant_factors` over ∂_1,
∂_2, ... or over the mapping cone of q.
"""

from __future__ import annotations

from typing import Sequence

from .abelian import FinAbGroup, PresentedGroup, _json_ints, _json_list, _json_object
from .matrix import (
    IntegerMatrix,
    echelon_coordinates,
    reduce_columns,
    smith_normal_form,
    sweep_invariant_factors,
)


class FreeChainComplex:
    """Chain complex of free modules in degrees 0..max_degree.

    `boundaries[n]` maps degree n to degree n-1 and has shape
    dims[n-1] x dims[n]; `boundaries[0]` is the 0 x dims[0] zero map.  Every
    boundary is an `IntegerMatrix`, whose row dicts store no zero, and
    ∂∘∂ = 0 is checked on construction by a sparse product (`_trusted` skips it).
    The complex is over Z: Z/q homology comes from it through the mapping
    cone of q (`homology_groups`) or [∂ | qI] (`homology_results`).
    """

    __slots__ = ("dims", "boundaries")

    def __init__(self, dims: Sequence[int], boundaries: Sequence[IntegerMatrix]):
        self.dims = list(dims)
        self.boundaries = list(boundaries)
        self.validate()

    @classmethod
    def _trusted(cls, dims: Sequence[int], boundaries: Sequence[IntegerMatrix]) -> "FreeChainComplex":
        """A complex whose ∂∘∂ = 0 the caller proves: the shapes are checked, the square is not.

        For `groupoids.moore_complex`, which checks its face tables' simplicial identities
        and each ∂_n's column sums.
        """
        complex_ = cls.__new__(cls)
        complex_.dims = list(dims)
        complex_.boundaries = list(boundaries)
        complex_._check_shapes()
        return complex_

    @property
    def max_degree(self) -> int:
        return len(self.dims) - 1

    def validate(self) -> None:
        """Check shape coherence and ∂∘∂ = 0; raise ValueError otherwise."""
        self._check_shapes()
        for n in range(2, len(self.dims)):
            square = self.boundaries[n - 1].matmul(self.boundaries[n])
            if not square.is_zero():
                witness = min(j for row in square._dicts for j in row)
                raise ValueError(
                    f"boundary square nonzero at degree {n}: column {witness} "
                    f"maps to {square.column(witness)}"
                )

    def _check_shapes(self) -> None:
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

    def to_json(self) -> dict:
        return {"dims": list(self.dims), "boundaries": [b.entries for b in self.boundaries]}

    @classmethod
    def from_json(cls, data: dict) -> "FreeChainComplex":
        """Strict inverse of `to_json`: a non-object, a missing or unknown
        key, a non-list or a non-int entry raises ValueError naming the key."""
        _json_object("chain complex", data, ("dims", "boundaries"))
        for key in data:
            if key not in ("dims", "boundaries"):
                raise ValueError(f"chain complex has unknown key {key!r}")
        dims = _json_ints("dims", data["dims"])
        raw = _json_list("boundaries", data["boundaries"])
        if len(raw) != len(dims):
            raise ValueError("shape mismatch: boundary count does not match dims")
        boundaries = [
            IntegerMatrix(dims[n - 1] if n else 0, dims[n], _json_ints("boundaries", flat))
            for n, flat in enumerate(raw)
        ]
        return cls(dims, boundaries)

    def __repr__(self) -> str:
        return f"FreeChainComplex(dims={self.dims})"


class HomologyResult:
    """Homology K/B in one degree: iso type, presentation, and representatives.

    `modulus` is 0 for integral homology and q >= 1 for Z/q coefficients.
    K = {v : ∂_n v ∈ qZ} and B = im(∂_{n+1}) + qZ^{dims[n]}; q = 0 gives
    ker(∂_n)/im(∂_{n+1}).  Built from a basis of K and an echelon basis of
    B, as the lattice stage `_lattices` gives them.  K's basis is put in
    echelon form too, so a chain's coordinates come by back-substitution, and
    a chain that does not reduce to zero is not a cycle.  B's coordinates
    that are a unit vector only delete a generator; the rest, one row dict
    per remaining generator, go to one small Smith form with U and U⁻¹
    (`rows=True`), which gives the diagonal presentation (invariant factors
    1 dropped).

    `cycle_reps[i]` is an integer chain whose class is the i-th generator of
    `presentation`; `class_coords` expresses any further cycle over those
    generators (raising "not a cycle" on chains outside K).
    """

    __slots__ = ("degree", "modulus", "group", "presentation", "cycle_reps",
                 "_dim", "_basis", "_uw")

    def __init__(self, n: int, q: int, dims: Sequence[int], cycles: list[dict[int, int]],
                 image: dict[int, dict[int, int]]):
        self.degree = n
        self.modulus = q
        self._dim = dims[n]
        pivots, _ = reduce_columns(cycles)
        self._basis = {low: cycles[k] for low, k in pivots.items()}
        coords = [echelon_coordinates(self._basis, dict(col)) for col in image.values()]
        if None in coords:
            raise AssertionError("image lattice escapes the cycle lattice")
        units = {low for x in coords if len(x) == 1 for low, v in x.items() if v in (1, -1)}
        rest = [low for low in sorted(self._basis) if low not in units]
        others = [x for x in coords if not x.keys() <= units]
        relations = {low: {} for low in rest}  # row `low` of B's coordinates, off the unit lows
        for k, x in enumerate(others):
            for low, v in x.items():
                if low in relations:
                    relations[low][k] = v
        diag, u, uinv = smith_normal_form(
            IntegerMatrix._wrap(len(rest), len(others), list(relations.values())), rows=True
        )
        orders = diag + [0] * (len(rest) - len(diag))
        kept = [i for i, d in enumerate(orders) if d != 1]
        self._uw = [{rest[k]: c for k, c in u._dicts[i].items()} for i in kept]
        self.presentation = PresentedGroup.from_diagonal([orders[i] for i in kept])
        self.group = FinAbGroup.from_cyclic_orders(self.presentation.orders)
        reps = {i: [0] * dims[n] for i in kept}  # column i of (K's basis at `rest`) · U⁻¹
        for low, row in zip(rest, uinv._dicts):
            for i, c in row.items():
                if i in reps:
                    rep = reps[i]
                    for j, v in self._basis[low].items():
                        rep[j] += c * v
        self.cycle_reps = list(reps.values())

    def _sparse(self, chain: Sequence[int]) -> dict[int, int]:
        if len(chain) != self._dim:
            raise ValueError(
                f"shape mismatch: chain of length {len(chain)} in ambient dimension {self._dim}"
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
        return self.presentation.canonical_form(
            [sum(u * x.get(low, 0) for low, u in uw.items()) for uw in self._uw])

    def same_class(self, chain_a: Sequence[int], chain_b: Sequence[int]) -> bool:
        return self.class_coords(chain_a) == self.class_coords(chain_b)

    def __repr__(self) -> str:
        coeff = "Z" if self.modulus == 0 else f"Z/{self.modulus}"
        return f"HomologyResult(degree={self.degree}, coefficients={coeff}, group={self.group})"


def _check_coefficients(q: int) -> None:
    if q < 0:
        raise ValueError("negative modulus")


def _check_trusted(complex_: FreeChainComplex, n: int) -> None:
    if n < 0:
        raise ValueError("negative degree")
    if n > complex_.max_degree - 1:
        raise ValueError(
            f"degree exceeds trusted truncation: degree {n} needs boundary {n + 1}, "
            f"complex is truncated at {complex_.max_degree}"
        )


def homology_mod(complex_: FreeChainComplex, q: int, n: int) -> HomologyResult:
    """Homology with Z/q coefficients, K/B with K = {v : ∂_n v ∈ qZ}.

    B = im(∂_{n+1}) + qZ^{dims[n]}, so the result is finite of exponent
    dividing q.  q = 0 falls back to integral homology; q = 1 yields the
    trivial group.  With ∂_1 = (2) and ∂_2 = 0, H_1(;Z/4) is Tor(Z/2, Z/4),
    carried by the chain 2 whose boundary 4 vanishes only mod 4:

    >>> c = FreeChainComplex([1, 1, 1], [IntegerMatrix(0, 1),
    ...     IntegerMatrix.from_rows([[2]]), IntegerMatrix(1, 1)])
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

    The twin of `homology_groups`, in two stages: `_lattices` reduces the
    complex once and gives each degree's cycle and image lattices, and
    `HomologyResult` turns each pair into a presentation and representatives.
    """
    _check_coefficients(q)
    if top is None:
        top = complex_.max_degree - 1
    else:
        _check_trusted(complex_, top)
    return [HomologyResult(m, q, complex_.dims, cycles, image)
            for m, (cycles, image) in enumerate(_lattices(complex_, q, top))]


def _lattices(
    complex_: FreeChainComplex, q: int, top: int
) -> list[tuple[list[dict[int, int]], dict[int, dict[int, int]]]]:
    """(basis of K_m, echelon basis of B_m by low) for m = 0..top, in the order they are built.

    Each A_m = [∂_m | qI] (∂_m when q = 0) is reduced once by
    `reduce_columns`, from m = top+1 down to 0, recording the column
    operations for m <= top: the zero columns' records give a basis of
    K_m = {v : ∂_m v ∈ qZ}, the pivots an echelon basis of B_{m-1}.
    Clearing: a pivot of A_{m+1} with a +-1 low j is a cycle, so putting it in
    place of column j of ∂_m's domain is a change of basis, unitriangular in
    the lows; column j is skipped and the pivot joins K_m's basis.  At a
    non-unit low that is no change of basis, so the column stays.  Each cleared
    cycle is checked, since nothing else reads the skipped columns.
    """
    lattices = []
    image: dict[int, dict[int, int]] = {}  # B_m's echelon basis, by low
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
            lattices.append((cycles, image))
        image = {low: cols[k] for low, k in pivots.items()}
    return lattices[::-1]


def homology_groups(complex_: FreeChainComplex, q: int = 0, top: int | None = None) -> list[FinAbGroup]:
    """Iso types of H_0..H_top (default: every trusted degree), Z or Z/q coefficients.

    One `sweep_invariant_factors` factors each matrix once.  q = 0 sweeps
    ∂_1..∂_{top+1}: H_n has rank dims[n] - rank ∂_n - rank ∂_{n+1} and the
    nonunit factors of ∂_{n+1} as torsion.  q >= 1 sweeps the mapping cone
    of q, a complex over Z with boundaries F_n = [[-∂_n, 0], [qI, ∂_{n+1}]]
    (rows C_{n-1} then C_n, columns C_n then C_{n+1}), so F_{n-1}·F_n = 0
    because ∂∘∂ = 0.  H_n(C;Z/q) is then the nonunit factors of F_n, whose
    rank must be dims[n]: chain level, no Tor formula.  Clearing needs each
    F_{n-1}·F_n = 0, so it is checked here: a nonzero one (boundaries
    corrupted after construction) stops the clearing so the rank check fails.

    One degree n is `homology_groups(complex_, q, n)[n]`:

    >>> c = FreeChainComplex([1, 1, 1], [IntegerMatrix(0, 1),
    ...     IntegerMatrix.from_rows([[2]]), IntegerMatrix(1, 1)])
    >>> str(homology_groups(c, 4, 1)[1])  # ∂_1 = (2): Tor(Z/2, Z/4)
    'Z/2'
    """
    _check_coefficients(q)
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
    runs: list[list[IntegerMatrix]] = [[]]
    for n, cone in enumerate(cones):
        if n and not cones[n - 1].matmul(cone).is_zero():
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


def _cones(complex_: FreeChainComplex, q: int, top: int) -> list[IntegerMatrix]:
    """The cone's F_0..F_top, as `homology_groups` states them."""
    bnds = complex_.boundaries[:top + 2]
    cones = []
    for here, above in zip(bnds, bnds[1:]):
        shift = here.cols
        top_rows = [{j: -v for j, v in r.items()} for r in here._dicts]
        bottom = [{i: q, **{shift + j: v for j, v in r.items()}} for i, r in enumerate(above._dicts)]
        cones.append(IntegerMatrix._wrap(here.rows + here.cols, shift + above.cols, top_rows + bottom))
    return cones
