"""Mayer–Vietoris machinery for two-set saturated covers of the unit space.

A cover of the units by saturated subsets U1, U2 splits every composable
tuple into one of the pieces (tuples never leave an orbit), giving a short
exact sequence of Moore complexes

    0 → C(G|U12) --to_pieces--> C(G|U1) ⊕ C(G|U2) --to_total--> C(G) → 0

where to_pieces sends an intersection tuple to (itself, -itself) and to_total
is extension by zero followed by summing.  The nerve of G|U is a subset of
the ambient nerve closed under faces, so each C(G|U) is a sub-block of the
ambient Moore complex: one nerve is built per cover, and each piece is a
list of ambient basis positions per degree.  Both maps act on chains through
those lists, and no matrix of either is built.  Exactness is a fact about the
lists (U1 ∪ U2 is every position and U1 ∩ U2 is exactly U12), and both maps
are chain maps because each list is closed under faces, which `_subcomplexes`
checks.

G is the disjoint union of G|(U1 ∖ U2), G|U12 and G|(U2 ∖ U1), so ∂ is
block diagonal over those three sets (`_subcomplexes` checks it).  A column
reduction only combines columns that share a low row, so the ambient
reduction restricted to a piece's columns is the piece's own, in the same
order: one run of the lattice stage of `chains.homology_results` on the
ambient complex serves all four complexes, each piece keeping the lattice
vectors inside its positions (`_split`).  No piece complex is reduced.

The connecting map is the explicit zig-zag: lift a cycle, take its
boundary, read the unique preimage off the intersection block, and return
that class; boundary claims rest on class coordinates in the intersection's
homology.

For the clopen saturated covers accepted here every connecting class is zero.
U2 ∖ U1 is the complement of the saturated set U1 (the two sets cover the
units), so it is saturated too, and G is the disjoint union of G|U1 and
G|(U2 ∖ U1).  The canonical lift of a cycle (its U1 part on the U1 piece, the
rest on the U2 piece) is therefore a cycle, and the long exact sequence splits
into short exact ones.  `connecting` still runs the zig-zag and
reads `is_boundary` off the class coordinates, so that verdict rests on the
arithmetic, not on this argument.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import chain, repeat
from typing import Sequence

from .abelian import FinAbGroup, GroupHom, PresentedGroup, middle_homology
from .chains import FreeChainComplex, HomologyResult, _check_trusted, _lattices
from .groupoids import DEFAULT_BUDGET, FiniteGroupoid, _positions, moore_complex, saturation_witness
from .matrix import IntegerMatrix


class MvDecomposition:
    """A validated two-set cover of the units and the sets' intersection.

    The restricted groupoids are not built: `MvChainSes` reads the nerve of
    each G|U off the ambient nerve.  `groupoids.reduction` builds G|U
    only for the isotropy groups of `homology` and `uct`.
    """

    __slots__ = ("ambient", "u1", "u2", "u12")

    def __init__(self, ambient: FiniteGroupoid, u1: tuple[int, ...], u2: tuple[int, ...]):
        self.ambient = ambient
        self.u1 = u1
        self.u2 = u2
        self.u12 = tuple(sorted(set(u1) & set(u2)))

    def __repr__(self) -> str:
        return (
            f"MvDecomposition(units={len(self.ambient.units)}, "
            f"|U1|={len(self.u1)}, |U2|={len(self.u2)}, |U12|={len(self.u12)})"
        )


def decompose(g: FiniteGroupoid, u1: Sequence[int], u2: Sequence[int]) -> MvDecomposition:
    """Validate a two-set cover: both sets saturated, union equal to all units."""
    u1 = tuple(sorted(set(u1)))
    u2 = tuple(sorted(set(u2)))
    unit_set = set(g.units)
    for name, members in (("U1", u1), ("U2", u2)):
        stray = [u for u in members if u not in unit_set]
        if stray:
            raise ValueError(f"{name} contains non-unit indices {stray}")
    missed = unit_set - set(u1) - set(u2)
    if missed:
        raise ValueError(f"cover fails: units {sorted(missed)} lie in neither U1 nor U2")
    for name, members in (("U1", u1), ("U2", u2)):
        witness = saturation_witness(g, members)
        if witness is not None:
            raise ValueError(f"{name} not saturated: arrow {witness} leaves the set")
    return MvDecomposition(g, u1, u2)


class MvChainSes:
    """The short exact sequence of Moore complexes for a decomposition.

    Only the ambient nerve is built.  The nerve of each G|U is the set of
    ambient tuples whose arrows all have both endpoints in U, in the ambient's
    lex order, so `complex1`, `complex2` and `complex12` are the sub-blocks of
    the ambient boundaries on those positions (`_positions`).
    `positions[n]` holds the degree-n position lists (U1, U2, U12) and
    `overlap[n]` the index of each U12 position in the U1 list and in the U2
    list.  `to_pieces` and `to_total` apply the two maps to chains through
    those lists; `_verify` checks on construction that the sequence is exact
    in every degree, and `_subcomplexes` that each list and its complement
    are closed under faces.
    """

    __slots__ = (
        "decomposition",
        "max_degree",
        "total_complex",
        "complex1",
        "complex2",
        "complex12",
        "positions",
        "overlap",
        "_shares",
        "_homology",
    )

    def __init__(self, decomposition: MvDecomposition, max_degree: int, budget: int | None):
        d = decomposition
        self.decomposition = d
        self.max_degree = max_degree
        self.total_complex = moore_complex(d.ambient, max_degree, budget=budget)
        pieces = [_positions(d.ambient, max_degree, u) for u in (d.u1, d.u2, d.u12)]
        self.positions = list(zip(*pieces))
        self.overlap = []
        for pos1, pos2, pos12 in self.positions:
            index1 = {p: i for i, p in enumerate(pos1)}
            index2 = {p: j for j, p in enumerate(pos2)}
            self.overlap.append(([index1[p] for p in pos12], [index2[p] for p in pos12]))
        self._verify()
        self.complex1, self.complex2, self.complex12 = _subcomplexes(self.total_complex, pieces)
        self._shares: dict[str, list] | None = None
        self._homology: dict[tuple[str, int], HomologyResult] = {}

    def _verify(self) -> None:
        """Exactness in each degree, read off the position lists; failure is an implementation bug.

        The lists strictly increase, so α and β send basis vectors to distinct
        basis vectors and α is split injective.  U1 ∪ U2 is every ambient
        position, so β is onto.  The U12 indices pick the same position in
        both pieces, so βα = 0, and U1 ∩ U2 is exactly U12, so a pair β kills
        is α of its U12 part: ker β = im α.
        """
        for n, ((pos1, pos2, pos12), (in1, in2)) in enumerate(zip(self.positions, self.overlap)):
            for name, pos in (("U1", pos1), ("U2", pos2), ("U12", pos12)):
                if any(a >= b for a, b in zip(pos, pos[1:])):
                    raise AssertionError(f"{name} positions not increasing in degree {n}")
            total = self.total_complex.dims[n]
            if set(pos1).union(pos2) != set(range(total)):
                raise AssertionError(f"sum not surjective in degree {n}")
            if [pos1[i] for i in in1] != pos12 or [pos2[j] for j in in2] != pos12:
                raise AssertionError(f"U12 indices miss the U12 positions in degree {n}")
            # U12 lies in U1 ∩ U2, whose size is |U1| + |U2| - |U1 ∪ U2|
            if len(pos1) + len(pos2) - total != len(pos12):
                raise AssertionError(f"U1 ∩ U2 is not U12 in degree {n}")

    # -- homology and the maps on chains -------------------------------------

    def homology(self, part: str, n: int) -> HomologyResult:
        """Integral homology of one of "total", "piece1", "piece2", "piece12".

        The first call reduces the ambient complex once (`_lattices`) and
        splits its lattices over the parts (`_split`); each (part, degree)
        result is built from its share when first asked, and cached.
        """
        key = (part, n)
        if key not in self._homology:
            complex_ = {
                "total": self.total_complex,
                "piece1": self.complex1,
                "piece2": self.complex2,
                "piece12": self.complex12,
            }[part]
            _check_trusted(complex_, n)
            if self._shares is None:
                self._shares = _split(_lattices(self.total_complex, 0, self.max_degree - 1), self.positions)
            cycles, image = self._shares[part][n]
            self._homology[key] = HomologyResult(n, 0, complex_.dims, cycles, image)
        return self._homology[key]

    def to_pieces(self, n: int, x: Sequence[int]) -> tuple[list[int], list[int]]:
        """α on a degree-n intersection chain: x on piece 1, -x on piece 2."""
        pos1, pos2, pos12 = self.positions[n]
        if len(x) != len(pos12):
            raise ValueError("shape mismatch: chain length does not match intersection dimension")
        y1, y2 = [0] * len(pos1), [0] * len(pos2)
        for i, j, v in zip(*self.overlap[n], x):
            y1[i], y2[j] = v, -v
        return y1, y2

    def to_total(self, n: int, y1: Sequence[int], y2: Sequence[int]) -> list[int]:
        """β on a pair of degree-n piece chains: their sum in the ambient basis."""
        pos1, pos2, _ = self.positions[n]
        if (len(y1), len(y2)) != (len(pos1), len(pos2)):
            raise ValueError("shape mismatch: chain lengths do not match piece dimensions")
        out = [0] * self.total_complex.dims[n]
        for pos, y in ((pos1, y1), (pos2, y2)):
            for p, v in zip(pos, y):
                out[p] += v
        return out

    def lift(
        self, n: int, chain: Sequence[int], rng: random.Random | None = None
    ) -> tuple[list[int], list[int]]:
        """A preimage (y1, y2) of an ambient chain under to_total.

        The canonical lift restricts to the U1 piece and puts the remainder on
        the U2 piece; with an rng, coefficients of intersection tuples are
        split randomly instead (still an exact preimage).
        """
        if len(chain) != self.total_complex.dims[n]:
            raise ValueError("shape mismatch: chain length does not match ambient dimension")
        pos1, pos2, _ = self.positions[n]
        y1 = [chain[p] for p in pos1]
        y2 = [chain[p] for p in pos2]
        for i, j in zip(*self.overlap[n]):
            if rng is not None:
                y1[i] = rng.randint(-3, 3)
            y2[j] -= y1[i]
        if self.to_total(n, y1, y2) != list(chain):
            raise AssertionError("lift failed to project back to the chain")
        return y1, y2

    def connecting(
        self, n: int, cycle: Sequence[int], rng: random.Random | None = None
    ) -> "ConnectingResult":
        """Zig-zag connecting map on one ambient degree-n cycle.

        Lift the cycle, take the boundary of the lift, read the unique
        intersection chain mapping onto it, and report that chain's class in
        degree n-1 of the intersection piece (the trivial group for n = 0).
        """
        boundary = self.total_complex.boundaries[n]
        if any(x != 0 for x in boundary.mul_vector(list(cycle))):
            raise ValueError("not a cycle")
        y1, y2 = self.lift(n, cycle, rng=rng)
        if n == 0:
            return ConnectingResult(degree=n, witness=[], coords=(), is_boundary=True)
        b1 = self.complex1.boundaries[n].mul_vector(y1)
        b2 = self.complex2.boundaries[n].mul_vector(y2)
        witness = [b1[i] for i in self.overlap[n - 1][0]]
        # uniqueness + correctness: to_pieces must reproduce the boundary exactly
        if self.to_pieces(n - 1, witness) != (b1, b2):
            raise AssertionError("boundary of the lift is not an intersection chain")
        h_below = self.homology("piece12", n - 1)
        coords = h_below.class_coords(witness)
        # the class is zero exactly when the witness lies in im ∂_n
        is_boundary = not any(coords)
        return ConnectingResult(degree=n, witness=witness, coords=coords, is_boundary=is_boundary)


class ConnectingResult:
    """Output of the zig-zag: the intersection chain and its class."""

    __slots__ = ("degree", "witness", "coords", "is_boundary")

    def __init__(self, degree: int, witness: list[int], coords: tuple[int, ...], is_boundary: bool):
        self.degree = degree
        self.witness = witness
        self.coords = coords
        self.is_boundary = is_boundary

    def __repr__(self) -> str:
        return f"ConnectingResult(degree={self.degree}, coords={self.coords})"


def _subcomplexes(complex_: FreeChainComplex, pieces: list[list[list[int]]]) -> list[FreeChainComplex]:
    """The sub-block of each boundary on each piece's basis positions, which
    are closed under faces, as is their complement.

    An entry of a block column in a row outside the block raises, so each
    boundary of a result is the ambient one restricted to a subcomplex:
    ∂∘∂ = 0 on it follows from the ambient check, and the inclusions of the
    pieces, hence both maps of the sequence, are chain maps.  An entry of a
    block row in a column outside the block raises too, so with `_verify`'s
    U1 ∪ U2 and U1 ∩ U2 = U12, ∂ is block diagonal over U1 ∖ U2, U12 and
    U2 ∖ U1 (`_split` rests on it).  The ambient nonzeros are counted per
    column once per degree, and the rest of the matrix is scanned only to
    name a witness.
    """
    boundaries = [[IntegerMatrix(0, len(positions[0]))] for positions in pieces]
    for n in range(1, len(pieces[0])):
        rows = complex_.boundaries[n]._dicts
        counts = Counter(chain.from_iterable(rows))
        for positions, out in zip(pieces, boundaries):
            cols = {p: j for j, p in enumerate(positions[n])}
            block = [{cols[p]: v for p, v in rows[r].items() if p in cols} for r in positions[n - 1]]
            kept = sum(map(len, block))
            # a block column (row) keeps at most its ambient entries, so equal totals lose none
            if kept != sum(map(counts.get, positions[n], repeat(0))):
                outside = set(range(len(rows))).difference(positions[n - 1])
                face = min(r for r in outside if not cols.keys().isdisjoint(rows[r]))
                raise AssertionError(f"positions not closed under faces in degree {n}: face {face} outside")
            if kept != sum(map(len, map(rows.__getitem__, positions[n - 1]))):
                tuple_ = min(p for r in positions[n - 1] for p in rows[r] if p not in cols)
                raise AssertionError(
                    f"complement not closed under faces in degree {n}: tuple {tuple_} outside has a face inside"
                )
            out.append(IntegerMatrix._wrap(len(block), len(cols), block))
    dims = ([len(pos) for pos in positions] for positions in pieces)
    return [FreeChainComplex._trusted(d, b) for d, b in zip(dims, boundaries)]


def _split(lattices: list, positions: list[tuple[list[int], list[int], list[int]]]) -> dict[str, list]:
    """Each part's (cycles, image) per degree, read off the ambient `_lattices`.

    A piece keeps the vectors inside its positions, in order, re-indexed
    through its increasing position list: what `_lattices` gives on the
    piece complex (see the module docstring).  A vector in neither U1 nor U2
    raises rather than being dropped.
    """
    out: dict[str, list] = {"total": lattices, "piece1": [], "piece2": [], "piece12": []}
    for m, (cycles, image) in enumerate(lattices):
        indexes = [{p: i for i, p in enumerate(pos)} for pos in positions[m]]
        shares = [([], {}) for _ in indexes]
        for low, v in chain(zip(repeat(None), cycles), image.items()):  # low None: a cycle
            in1, in2 = v.keys() <= indexes[0].keys(), v.keys() <= indexes[1].keys()
            if not (in1 or in2):
                only1 = min(p for p in v if p not in indexes[1])
                only2 = min(p for p in v if p not in indexes[0])
                raise AssertionError(
                    f"lattice vector in degree {m} lies in neither U1 nor U2: "
                    f"position {only1} is outside U2 and {only2} outside U1"
                )
            for (kept_cycles, kept_image), index, keep in zip(shares, indexes, (in1, in2, in1 and in2)):
                if keep:
                    w = {index[p]: c for p, c in v.items()}
                    if low is None:
                        kept_cycles.append(w)
                    else:
                        kept_image[index[low]] = w
        for part, share in zip(("piece1", "piece2", "piece12"), shares):
            out[part].append(share)
    return out


def chain_ses(
    decomposition: MvDecomposition, max_degree: int, budget: int | None = DEFAULT_BUDGET
) -> MvChainSes:
    return MvChainSes(decomposition, max_degree, budget)


class LongExactSequence:
    """The homology long exact sequence of a decomposition, fully presented.

    `nodes` runs from degree N-1 down to 0 in blocks
    H_n(G|U12) → H_n(G|U1) ⊕ H_n(G|U2) → H_n(G) → H_{n-1}(G|U12) → …
    ending in the trivial group; `arrows[i]` maps nodes[i] to nodes[i+1].
    """

    __slots__ = ("nodes", "arrows", "ses")

    def __init__(self, nodes, arrows, ses: MvChainSes):
        self.nodes = nodes  # list of (label, PresentedGroup, FinAbGroup)
        self.arrows = arrows  # list of GroupHom
        self.ses = ses

    def verify_exactness(self) -> list[tuple[str, FinAbGroup]]:
        """middle_homology at every interior node (all must be trivial)."""
        out = []
        for i in range(1, len(self.nodes) - 1):
            label = self.nodes[i][0]
            out.append((label, middle_homology(self.arrows[i - 1], self.arrows[i])))
        return out

    def to_json(self) -> list[dict]:
        records = []
        for i, (label, _presentation, group) in enumerate(self.nodes):
            arrow = self.arrows[i] if i < len(self.arrows) else None
            records.append(
                {
                    "label": label,
                    "group": group.to_json(),
                    "map_matrix": [arrow.matrix.row(i) for i in range(arrow.matrix.rows)]
                    if arrow is not None
                    else [],
                }
            )
        return records


def long_exact_sequence(
    decomposition: MvDecomposition, max_degree: int, budget: int | None = DEFAULT_BUDGET
) -> LongExactSequence:
    """Assemble the long exact sequence in trusted degrees 0..N-1."""
    ses = chain_ses(decomposition, max_degree, budget)
    top = max_degree - 1
    h12 = [ses.homology("piece12", n) for n in range(top + 1)]
    h1 = [ses.homology("piece1", n) for n in range(top + 1)]
    h2 = [ses.homology("piece2", n) for n in range(top + 1)]
    ht = [ses.homology("total", n) for n in range(top + 1)]
    pair_nodes = [PresentedGroup.from_diagonal(h1[n].presentation.orders + h2[n].presentation.orders)
                  for n in range(top + 1)]
    trivial_node = PresentedGroup.trivial()

    nodes = []
    arrows = []
    for n in range(top, -1, -1):
        # to_pieces on homology
        cols = []
        for z in h12[n].cycle_reps:
            y1, y2 = ses.to_pieces(n, z)
            cols.append(list(h1[n].class_coords(y1)) + list(h2[n].class_coords(y2)))
        alpha_hom = GroupHom.from_columns(h12[n].presentation, pair_nodes[n], cols)
        # to_total on homology
        zero1, zero2 = [0] * ses.complex1.dims[n], [0] * ses.complex2.dims[n]
        cols = [list(ht[n].class_coords(ses.to_total(n, z, zero2))) for z in h1[n].cycle_reps]
        cols += [list(ht[n].class_coords(ses.to_total(n, zero1, z))) for z in h2[n].cycle_reps]
        beta_hom = GroupHom.from_columns(pair_nodes[n], ht[n].presentation, cols)
        # connecting on homology
        target = h12[n - 1].presentation if n >= 1 else trivial_node
        cols = [list(ses.connecting(n, z).coords) for z in ht[n].cycle_reps]
        delta_hom = GroupHom.from_columns(ht[n].presentation, target, cols)

        nodes.append((f"H_{n}(G|U12)", h12[n].presentation, h12[n].group))
        nodes.append(
            (
                f"H_{n}(G|U1) ⊕ H_{n}(G|U2)",
                pair_nodes[n],
                h1[n].group.direct_sum(h2[n].group),
            )
        )
        nodes.append((f"H_{n}(G)", ht[n].presentation, ht[n].group))
        arrows.extend([alpha_hom, beta_hom, delta_hom])
    nodes.append(("0", trivial_node, FinAbGroup.trivial()))
    return LongExactSequence(nodes, arrows, ses)
