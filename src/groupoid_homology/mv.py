"""Mayer–Vietoris machinery for two-set saturated covers of the unit space.

A cover of the units by saturated subsets U1, U2 splits every composable
tuple into one of the pieces (tuples never leave an orbit), giving a short
exact sequence of Moore complexes

    0 → C(G|U12) --to_pieces--> C(G|U1) ⊕ C(G|U2) --to_total--> C(G) → 0

The nerve of G|U is a subset of the ambient nerve closed under faces, so
C(G|U) is the subcomplex of the ambient Moore complex on the positions of
those tuples: one nerve is built per cover, each piece is a list of ambient
basis positions per degree, and a chain of a piece is an ambient chain that
vanishes off its positions.  So to_pieces is x ↦ (x, -x) and to_total is
(y1, y2) ↦ y1 + y2, each checking the support of what it is handed, and
every boundary is the ambient ∂.  Exactness is a fact about the lists (U1 ∪
U2 is every position and U1 ∩ U2 is exactly U12), and both maps are chain
maps because each list is closed under faces; `MvChainSes._verify` checks
both.

G is the disjoint union of G|(U1 ∖ U2), G|U12 and G|(U2 ∖ U1), so ∂ is
block diagonal over those three sets (`_verify` checks it).  A column
reduction only combines columns that share a low row, so the ambient
reduction restricted to a piece's columns is the piece's own, in the same
order: one run of the lattice stage of `chains.homology_results` on the
ambient complex serves all four complexes, each piece keeping the lattice
vectors inside its positions (`_split`).  No piece complex is built.

The connecting map is the explicit zig-zag: lift a cycle, take its
boundary, read the intersection chain it is the image of, and return that
class; boundary claims rest on class coordinates in the intersection's
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
from .chains import HomologyResult, _check_trusted, _lattices
from .groupoids import DEFAULT_BUDGET, FiniteGroupoid, _positions, moore_complex, saturation_witness

_PIECES = ("U1", "U2", "U12")  # the order of the lists in `MvChainSes.positions[n]`


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
    lex order (`_positions`): `positions[n]` holds the degree-n position lists
    (U1, U2, U12).  A chain of a piece is an ambient-length list that vanishes
    off the piece's positions, and so are the pieces' `cycle_reps` and the
    connecting witnesses.  `_verify` checks on construction that the
    sequence is exact in every degree and that each list and its complement
    are closed under faces.
    """

    __slots__ = ("decomposition", "max_degree", "total_complex", "positions", "_shares", "_homology")

    def __init__(self, decomposition: MvDecomposition, max_degree: int, budget: int | None):
        d = decomposition
        self.decomposition = d
        self.max_degree = max_degree
        self.total_complex = moore_complex(d.ambient, max_degree, budget=budget)
        self.positions = list(zip(*(_positions(d.ambient, max_degree, u) for u in (d.u1, d.u2, d.u12))))
        self._verify()
        self._shares: dict[str, list] | None = None
        self._homology: dict[tuple[str, int], HomologyResult] = {}

    def _verify(self) -> None:
        """Exactness and closure under faces, read off the position lists and ∂.

        Failure is an implementation bug.

        The lists strictly increase, so each is a set of basis vectors.  U1 ∪ U2
        is every ambient position, so β is onto, and U1 ∩ U2 is exactly U12, so
        α lands in the pieces (βα = 0) and a pair β kills is α of its U12 part:
        ker β = im α.

        Then an entry of ∂ in a list's column and in a row outside the list
        raises, so each piece is a subcomplex: the ambient ∂ keeps a piece's
        chains on the piece, both maps are chain maps, and the piece's ∂∘∂ = 0
        is the ambient one.  An entry in a list's row and in a column outside it
        raises too, so ∂ is block diagonal over U1 ∖ U2, U12 and U2 ∖ U1
        (`_split` rests on it).  The entries inside are counted against the
        ambient nonzeros per column, with no sub-block built, and the matrix is
        scanned only to name a witness.
        """
        dims = self.total_complex.dims
        for n, lists in enumerate(self.positions):
            for name, pos in zip(_PIECES, lists):
                if any(a >= b for a, b in zip(pos, pos[1:])):
                    raise AssertionError(f"{name} positions not increasing in degree {n}")
            set1, set2, set12 = map(set, lists)
            if set1 | set2 != set(range(dims[n])):
                raise AssertionError(f"sum not surjective in degree {n}")
            if set1 & set2 != set12:
                raise AssertionError(f"U1 ∩ U2 is not U12 in degree {n}")
        for n in range(1, len(dims)):
            rows = self.total_complex.boundaries[n]._dicts
            counts = Counter(chain.from_iterable(rows))
            for pos_below, pos in zip(self.positions[n - 1], self.positions[n]):
                cols = set(pos)
                below = [rows[r] for r in pos_below]
                kept = sum(len(cols.intersection(row)) for row in below)
                # a list's columns (rows) hold at most their ambient entries, so equal totals lose none
                if kept != sum(map(counts.get, pos, repeat(0))):
                    outside = set(range(len(rows))).difference(pos_below)
                    face = min(r for r in outside if not cols.isdisjoint(rows[r]))
                    raise AssertionError(
                        f"positions not closed under faces in degree {n}: face {face} outside"
                    )
                if kept != sum(map(len, below)):
                    tuple_ = min(p for row in below for p in row if p not in cols)
                    raise AssertionError(
                        f"complement not closed under faces in degree {n}: tuple {tuple_} outside has a face inside"
                    )

    # -- homology and the maps on chains -------------------------------------

    def homology(self, part: str, n: int) -> HomologyResult:
        """Integral homology of one of "total", "piece1", "piece2", "piece12".

        The first call reduces the ambient complex once (`_lattices`) and
        splits its lattices over the parts (`_split`); each (part, degree)
        result is built from its share when first asked, and cached.  Every
        part's chains are ambient chains.
        """
        key = (part, n)
        if key not in self._homology:
            _check_trusted(self.total_complex, n)
            if self._shares is None:
                self._shares = _split(_lattices(self.total_complex, 0, self.max_degree - 1), self.positions)
            cycles, image = self._shares[part][n]
            self._homology[key] = HomologyResult(n, 0, self.total_complex.dims, cycles, image)
        return self._homology[key]

    def _supported(self, n: int, k: int, chain: Sequence[int]) -> None:
        """Raise unless a degree-n chain is ambient-length and vanishes off `positions[n][k]`."""
        if len(chain) != self.total_complex.dims[n]:
            raise ValueError("shape mismatch: chain length does not match ambient dimension")
        off = _outside(chain, self.positions[n][k])
        if off is not None:
            raise ValueError(
                f"support mismatch: chain nonzero at position {off}, outside {_PIECES[k]} in degree {n}"
            )

    def to_pieces(self, n: int, x: Sequence[int]) -> tuple[list[int], list[int]]:
        """α on a degree-n chain of the intersection: (x, -x)."""
        self._supported(n, 2, x)
        return list(x), [-v for v in x]

    def to_total(self, n: int, y1: Sequence[int], y2: Sequence[int]) -> list[int]:
        """β on a pair of degree-n chains of the pieces: y1 + y2."""
        self._supported(n, 0, y1)
        self._supported(n, 1, y2)
        return [a + b for a, b in zip(y1, y2)]

    def lift(
        self, n: int, chain: Sequence[int], rng: random.Random | None = None
    ) -> tuple[list[int], list[int]]:
        """A preimage (y1, y2) of an ambient chain under to_total.

        The canonical lift restricts the chain to U1 and puts the rest on U2;
        with an rng, the coefficients at the U12 positions are drawn at random
        instead, in increasing position order (still an exact preimage).
        """
        if len(chain) != self.total_complex.dims[n]:
            raise ValueError("shape mismatch: chain length does not match ambient dimension")
        pos1, pos2, pos12 = self.positions[n]
        y1, y2 = [0] * len(chain), [0] * len(chain)
        for p in pos1:
            y1[p] = chain[p]
        if rng is not None:
            for p in pos12:
                y1[p] = rng.randint(-3, 3)
        for p in pos2:
            y2[p] = chain[p] - y1[p]
        if self.to_total(n, y1, y2) != list(chain):
            raise AssertionError("lift failed to project back to the chain")
        return y1, y2

    def connecting(
        self, n: int, cycle: Sequence[int], rng: random.Random | None = None
    ) -> "ConnectingResult":
        """Zig-zag connecting map on one ambient degree-n cycle.

        Lift the cycle and take the ambient ∂ of both chains of the lift: they
        are (w, -w) for the intersection chain w, the witness, whose class in
        degree n-1 of the intersection piece is reported (the trivial group
        for n = 0).
        """
        boundary = self.total_complex.boundaries[n]
        if any(x != 0 for x in boundary.mul_vector(list(cycle))):
            raise ValueError("not a cycle")
        y1, y2 = self.lift(n, cycle, rng=rng)
        if n == 0:
            return ConnectingResult(degree=n, witness=[], coords=(), is_boundary=True)
        witness = boundary.mul_vector(y1)
        below12 = self.positions[n - 1][2]
        if boundary.mul_vector(y2) != [-v for v in witness] or _outside(witness, below12) is not None:
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


def _outside(chain: Sequence[int], positions: list[int]) -> int | None:
    """The least position where the chain is nonzero and that `positions` misses, or None."""
    inside = set(positions)
    return next((p for p, v in enumerate(chain) if v and p not in inside), None)


def _split(lattices: list, positions: list[tuple[list[int], list[int], list[int]]]) -> dict[str, list]:
    """Each part's (cycles, image) per degree, read off the ambient `_lattices`.

    A piece keeps the vectors inside its positions, in order and as they are:
    what `_lattices` gives on the piece's subcomplex, in the ambient basis
    (see the module docstring).  A vector in neither U1 nor U2 raises rather
    than being dropped.
    """
    out: dict[str, list] = {"total": lattices, "piece1": [], "piece2": [], "piece12": []}
    for m, (cycles, image) in enumerate(lattices):
        set1, set2 = set(positions[m][0]), set(positions[m][1])
        shares = [([], {}) for _ in range(3)]
        for low, v in chain(zip(repeat(None), cycles), image.items()):  # low None: a cycle
            in1, in2 = v.keys() <= set1, v.keys() <= set2
            if not (in1 or in2):
                only1 = min(p for p in v if p not in set2)
                only2 = min(p for p in v if p not in set1)
                raise AssertionError(
                    f"lattice vector in degree {m} lies in neither U1 nor U2: "
                    f"position {only1} is outside U2 and {only2} outside U1"
                )
            for (kept_cycles, kept_image), keep in zip(shares, (in1, in2, in1 and in2)):
                if keep:
                    if low is None:
                        kept_cycles.append(v)
                    else:
                        kept_image[low] = v
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
    `connecting[n]` holds the canonical `ConnectingResult` of each of
    H_n(G)'s `cycle_reps`, the columns of δ.
    """

    __slots__ = ("nodes", "arrows", "ses", "connecting")

    def __init__(self, nodes, arrows, ses: MvChainSes, connecting: list[list[ConnectingResult]]):
        self.nodes = nodes  # list of (label, PresentedGroup, FinAbGroup)
        self.arrows = arrows  # list of GroupHom
        self.ses = ses
        self.connecting = connecting

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
    pair_nodes = [PresentedGroup(h1[n].presentation.orders + h2[n].presentation.orders)
                  for n in range(top + 1)]
    trivial_node = PresentedGroup.trivial()
    connecting = [[ses.connecting(n, z) for z in ht[n].cycle_reps] for n in range(top + 1)]

    nodes = []
    arrows = []
    for n in range(top, -1, -1):
        # to_pieces on homology
        cols = []
        for z in h12[n].cycle_reps:
            y1, y2 = ses.to_pieces(n, z)
            cols.append(list(h1[n].class_coords(y1)) + list(h2[n].class_coords(y2)))
        alpha_hom = GroupHom.from_columns(h12[n].presentation, pair_nodes[n], cols)
        # to_total on homology: β(z, 0) = β(0, z) = z
        cols = [list(ht[n].class_coords(z)) for z in h1[n].cycle_reps + h2[n].cycle_reps]
        beta_hom = GroupHom.from_columns(pair_nodes[n], ht[n].presentation, cols)
        # connecting on homology
        target = h12[n - 1].presentation if n >= 1 else trivial_node
        delta_hom = GroupHom.from_columns(ht[n].presentation, target, [list(r.coords) for r in connecting[n]])

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
    return LongExactSequence(nodes, arrows, ses, connecting)
