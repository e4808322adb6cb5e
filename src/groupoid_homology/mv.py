"""Mayer–Vietoris machinery for two-set saturated covers of the unit space.

A cover of the units by saturated subsets U1, U2 splits every composable
tuple into one of the pieces (tuples never leave an orbit), giving a short
exact sequence of Moore complexes

    0 → C(G|U12) --to_pieces--> C(G|U1) ⊕ C(G|U2) --to_total--> C(G) → 0

where to_pieces sends an intersection tuple to (itself, -itself) and to_total
is extension by zero followed by summing.  The connecting map is the explicit
zig-zag: lift a cycle, take its boundary, read the unique preimage off the
intersection block, and return that class.  Both maps are `SparseMatrix`
built from the tuple correspondences, with one or two entries per column.
Everything here is verified by exact sparse matrix identities — chain-map
squares, injectivity/surjectivity through invariant factors, and class
coordinates in the intersection's homology for boundary claims.

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
from typing import Sequence

from .abelian import FinAbGroup, GroupHom, PresentedGroup, middle_homology
from .chains import HomologyResult, _check_trusted, homology_results
from .groupoids import (
    DEFAULT_BUDGET,
    FiniteGroupoid,
    moore_complex,
    reduction,
    saturation_witness,
)
from .matrix import IntegerMatrix, SparseMatrix, invariant_factors


class MvDecomposition:
    """A validated two-set saturated cover with its three reductions."""

    __slots__ = (
        "ambient",
        "u1",
        "u2",
        "u12",
        "piece1",
        "piece2",
        "piece12",
    )

    def __init__(self, ambient: FiniteGroupoid, u1: tuple[int, ...], u2: tuple[int, ...]):
        self.ambient = ambient
        self.u1 = u1
        self.u2 = u2
        self.u12 = tuple(sorted(set(u1) & set(u2)))
        self.piece1 = reduction(ambient, u1)
        self.piece2 = reduction(ambient, u2)
        self.piece12 = reduction(ambient, self.u12)

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

    `to_pieces[n]` is the intersection-to-pieces map (second block negated),
    `to_total[n]` the pieces-to-ambient sum, both `SparseMatrix`; both are
    verified chain maps and the sequence is verified exact degreewise on
    construction.  Row p of `to_total[n]` lists the piece columns of ambient
    tuple p, so it is also the table that `lift` reads.
    `intersection_to_piece1[n][j]` is the piece-1 index of intersection
    tuple j, the block that `connecting` reads its witness off.
    """

    __slots__ = (
        "decomposition",
        "max_degree",
        "total_complex",
        "complex1",
        "complex2",
        "complex12",
        "to_pieces",
        "to_total",
        "intersection_to_piece1",
        "_homology",
    )

    def __init__(self, decomposition: MvDecomposition, max_degree: int, budget: int | None):
        d = decomposition
        self.decomposition = d
        self.max_degree = max_degree
        self.total_complex = moore_complex(d.ambient, max_degree, budget=budget)
        self.complex1 = moore_complex(d.piece1, max_degree, budget=budget)
        self.complex2 = moore_complex(d.piece2, max_degree, budget=budget)
        self.complex12 = moore_complex(d.piece12, max_degree, budget=budget)
        self.to_pieces = []
        self.to_total = []
        self.intersection_to_piece1 = []
        self._homology: dict[tuple[str, int], HomologyResult] = {}
        for n in range(max_degree + 1):
            self._build_degree(n)
        self._verify()

    # -- construction ------------------------------------------------------

    def _build_degree(self, n: int) -> None:
        d = self.decomposition
        ambient_labels = self.total_complex.basis_labels[n]
        ambient_pos = {t: i for i, t in enumerate(ambient_labels)}
        # a reduction labels its arrows with the ambient's labels, which are
        # ambient indices only when the ambient is not itself a reduction
        arrow_index = {label: a for a, label in enumerate(d.ambient.arrow_labels)}

        def translate(piece_labels, piece):
            arrow_map = [arrow_index[label] for label in piece.arrow_labels]
            return [tuple(arrow_map[x] for x in t) for t in piece_labels]

        tuples1 = translate(self.complex1.basis_labels[n], d.piece1)
        tuples2 = translate(self.complex2.basis_labels[n], d.piece2)
        tuples12 = translate(self.complex12.basis_labels[n], d.piece12)
        dim1 = len(tuples1)
        pos1 = {t: i for i, t in enumerate(tuples1)}
        pos2 = {t: i for i, t in enumerate(tuples2, start=dim1)}
        in1 = [pos1[t] for t in tuples12]

        alpha = SparseMatrix(dim1 + len(tuples2), len(tuples12))
        for j, t in enumerate(tuples12):
            alpha._dicts[in1[j]][j] = 1
            alpha._dicts[pos2[t]][j] = -1
        # an ambient tuple no piece owns leaves an empty row: "sum not surjective"
        beta = SparseMatrix(len(ambient_labels), alpha.rows)
        for i, t in enumerate(tuples1 + tuples2):
            beta._dicts[ambient_pos[t]][i] = 1

        self.to_pieces.append(alpha)
        self.to_total.append(beta)
        self.intersection_to_piece1.append(in1)

    def _verify(self) -> None:
        """Exactness and chain-map identities; failure is an implementation bug."""
        for n in range(self.max_degree + 1):
            alpha, beta = self.to_pieces[n], self.to_total[n]
            dim12 = self.complex12.dims[n]
            dim_total = self.total_complex.dims[n]
            if not beta.matmul(alpha).is_zero():
                raise AssertionError(f"composite nonzero in degree {n}")
            if invariant_factors(alpha) != [1] * dim12:
                raise AssertionError(f"inclusion not split in degree {n}")
            if invariant_factors(beta) != [1] * dim_total:
                raise AssertionError(f"sum not surjective in degree {n}")
            # split injective + rank count + zero composite force ker = im:
            # im(alpha) is a saturated sublattice of ker(beta) of full rank
            kernel_rank = beta.cols - dim_total
            if kernel_rank != dim12:
                raise AssertionError(f"rank mismatch in degree {n}")
        for n in range(1, self.max_degree + 1):
            alpha, beta = self.to_pieces[n], self.to_total[n]
            boundary_pieces = SparseMatrix.block_diag(
                [self.complex1.boundaries[n], self.complex2.boundaries[n]]
            )
            left = self.to_pieces[n - 1].matmul(self.complex12.boundaries[n])
            right = boundary_pieces.matmul(alpha)
            if left != right:
                raise AssertionError(f"intersection map is not a chain map in degree {n}")
            left = self.total_complex.boundaries[n].matmul(beta)
            right = self.to_total[n - 1].matmul(boundary_pieces)
            if left != right:
                raise AssertionError(f"sum map is not a chain map in degree {n}")

    # -- homology and lifts --------------------------------------------------

    def homology(self, part: str, n: int) -> HomologyResult:
        """Integral homology of one of "total", "piece1", "piece2", "piece12".

        The first call for a part reduces its complex once, by
        `homology_results`, and caches every trusted degree.
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
            self._homology.update(((part, m), h) for m, h in enumerate(homology_results(complex_)))
        return self._homology[key]

    def lift(self, n: int, chain: Sequence[int], rng: random.Random | None = None) -> list[int]:
        """A preimage of an ambient chain under to_total[n].

        The canonical lift restricts to the U1 piece and puts the remainder on
        the U2 piece; with an rng, coefficients of intersection tuples are
        split randomly instead (still an exact preimage).
        """
        beta = self.to_total[n]
        if len(chain) != beta.rows:
            raise ValueError("shape mismatch: chain length does not match ambient dimension")
        out = [0] * beta.cols
        for owners, x in zip(beta._dicts, chain):
            # the row holds the piece-1 column, the piece-2 column, or both
            if len(owners) == 2 and rng is not None:
                first = rng.randint(-3, 3)
                own1, own2 = sorted(owners)
                out[own1] += first
                out[own2] += x - first
            elif x:
                out[min(owners)] += x
        check = beta.mul_vector(out)
        if check != list(chain):
            raise AssertionError("lift failed to project back to the chain")
        return out

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
        if n == 0:
            self.lift(n, cycle, rng=rng)
            return ConnectingResult(degree=n, witness=[], coords=(), is_boundary=True)
        lifted = self.lift(n, cycle, rng=rng)
        dim1 = self.complex1.dims[n]
        b1 = self.complex1.boundaries[n].mul_vector(lifted[:dim1])
        b2 = self.complex2.boundaries[n].mul_vector(lifted[dim1:])
        in1 = self.intersection_to_piece1[n - 1]
        witness = [b1[in1[j]] for j in range(self.complex12.dims[n - 1])]
        # uniqueness + correctness: to_pieces must reproduce the boundary exactly
        expected = self.to_pieces[n - 1].mul_vector(witness)
        if expected != b1 + b2:
            raise AssertionError("boundary of the lift is not an intersection chain")
        h_below = self.homology("piece12", n - 1)
        coords = h_below.class_coords(witness)
        # the class is zero exactly when the witness lies in im ∂_n
        is_boundary = not any(coords)
        return ConnectingResult(degree=n, witness=witness, coords=coords, is_boundary=is_boundary)

    def cycle_lift(self, n: int, cycle: Sequence[int]) -> list[int]:
        """A preimage of the cycle under to_total that is itself a cycle.

        Exists exactly when the connecting class vanishes: correct the
        canonical lift by to_pieces of a chain bounding the witness, read off
        the intersection's recorded reduction (so n < max_degree).
        """
        result = self.connecting(n, cycle)
        lifted = self.lift(n, cycle)
        if n == 0:
            return lifted
        if not result.is_boundary:
            raise ValueError("cycle admits no cycle lift: connecting class is nonzero")
        filler = self.homology("piece12", n - 1).bounding_chain(result.witness)
        if filler is None:
            raise AssertionError("witness declared a boundary but no filler found")
        correction = self.to_pieces[n].mul_vector(filler)
        out = [a - b for a, b in zip(lifted, correction)]
        dim1 = self.complex1.dims[n]
        if any(self.complex1.boundaries[n].mul_vector(out[:dim1])) or any(
            self.complex2.boundaries[n].mul_vector(out[dim1:])
        ):
            raise AssertionError("corrected lift is not a cycle")
        if self.to_total[n].mul_vector(out) != list(cycle):
            raise AssertionError("corrected lift no longer projects to the cycle")
        return out


class ConnectingResult:
    """Output of the zig-zag: the intersection chain and its class."""

    __slots__ = ("degree", "witness", "coords", "is_boundary")

    def __init__(self, degree: int, witness: list[int], coords: tuple[int, ...], is_boundary: bool):
        self.degree = degree
        self.witness = witness
        self.coords = coords
        self.is_boundary = is_boundary

    @property
    def is_zero_class(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __repr__(self) -> str:
        return f"ConnectingResult(degree={self.degree}, coords={self.coords})"


def chain_ses(
    decomposition: MvDecomposition, max_degree: int, budget: int | None = DEFAULT_BUDGET
) -> MvChainSes:
    return MvChainSes(decomposition, max_degree, budget)


def connecting(
    decomposition: MvDecomposition,
    n: int,
    cycle: Sequence[int],
    rng: random.Random | None = None,
    budget: int | None = DEFAULT_BUDGET,
) -> ConnectingResult:
    """Connecting class of one ambient cycle (builds the SES up to degree n)."""
    return chain_ses(decomposition, n, budget).connecting(n, cycle, rng=rng)


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


def _from_columns(cols: list[list[int]], target: PresentedGroup) -> IntegerMatrix:
    """The matrix whose columns, one per source generator, lie in `target`."""
    rows = [[col[i] for col in cols] for i in range(target.generators)]
    return IntegerMatrix.from_rows(rows, cols=len(cols))


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
        dim1 = ses.complex1.dims[n]
        # to_pieces on homology
        cols = []
        for z in h12[n].cycle_reps:
            image = ses.to_pieces[n].mul_vector(z)
            c1 = h1[n].class_coords(image[:dim1])
            c2 = h2[n].class_coords(image[dim1:])
            cols.append(list(c1) + list(c2))
        alpha_hom = GroupHom(h12[n].presentation, pair_nodes[n],
                             _from_columns(cols, pair_nodes[n]))
        # to_total on homology
        cols = []
        for z in h1[n].cycle_reps:
            padded = list(z) + [0] * ses.complex2.dims[n]
            cols.append(list(ht[n].class_coords(ses.to_total[n].mul_vector(padded))))
        for z in h2[n].cycle_reps:
            padded = [0] * dim1 + list(z)
            cols.append(list(ht[n].class_coords(ses.to_total[n].mul_vector(padded))))
        beta_hom = GroupHom(pair_nodes[n], ht[n].presentation,
                            _from_columns(cols, ht[n].presentation))
        # connecting on homology
        target = h12[n - 1].presentation if n >= 1 else trivial_node
        cols = [list(ses.connecting(n, z).coords) for z in ht[n].cycle_reps]
        delta_hom = GroupHom(ht[n].presentation, target, _from_columns(cols, target))

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
