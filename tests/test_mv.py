"""Tests for two-set cover decompositions, the chain-level short exact
sequence, connecting classes, and the assembled long exact sequence.

Exactness is asserted two independent ways: literally at the chain level
(kernel lattice equals image lattice for the maps as matrices that
`oracles.mv_maps` builds from the position lists, by the package-free lattice
oracles in `oracles.py`) and at the homology level (defect groups of the assembled
sequence, cross-checked by element-by-element enumeration on finite nodes).
Boundary claims of the connecting map are checked by oracle lattice membership.
A chain of a piece is an ambient chain that vanishes off the piece's
positions; `restrict` and `extend` convert to and from the coordinates of
the piece's own complex, `moore_complex(reduction(g, U))`, whose basis is in
`_positions` order.
"""

import random
import re
import subprocess
import sys

import pytest

from groupoid_homology import (
    FinAbGroup,
    FiniteGroupoid,
    FreeChainComplex,
    IntegerMatrix,
    action,
    chain_ses,
    decompose,
    disjoint_union,
    homology_results,
    invariant_factors,
    long_exact_sequence,
    moore_complex,
    one_object_cyclic,
    orbits,
    pair,
    reduction,
    units,
)
import groupoid_homology.abelian as abelian_module
import groupoid_homology.chains as chains_module
import groupoid_homology.mv as mv_module
from groupoid_homology.mv import MvChainSes, MvDecomposition

import oracles
from test_cli import child_env, gen_file, run_cli
from test_matrix import raw_rows


def kernel_equals_image(beta, alpha):
    """ker(beta) = im(alpha) as lattices, by the package-free oracles."""
    kernel = oracles.saturated_kernel_basis(raw_rows(beta), beta.cols)
    return oracles.same_lattice(kernel, raw_rows(alpha))


def mv_matrices(ses, n):
    """(α, β) in degree n, built by the oracle from the sequence's position lists."""
    pos1, pos2, pos12 = ses.positions[n]
    alpha, beta = oracles.mv_maps(pos1, pos2, pos12, ses.total_complex.dims[n])
    return (IntegerMatrix.from_rows(alpha, cols=len(pos12)),
            IntegerMatrix.from_rows(beta, cols=len(pos1) + len(pos2)))


def restrict(chain, pos):
    """An ambient chain's coordinates at a piece's positions."""
    return [chain[p] for p in pos]


def extend(x, pos, dim):
    """A piece's coordinates as the ambient chain that vanishes off its positions."""
    out = [0] * dim
    for p, v in zip(pos, x):
        out[p] = v
    return out


def block_diag(a, b):
    """[[a, 0], [0, b]]: the two pieces' maps side by side."""
    return IntegerMatrix.vstack(
        [IntegerMatrix.hstack([a, IntegerMatrix(a.rows, b.cols)]),
         IntegerMatrix.hstack([IntegerMatrix(b.rows, a.cols), b])]
    )


def union(*parts):
    out = parts[0]
    for g in parts[1:]:
        out = disjoint_union(out, g)
    return out


def three_orbit_covers():
    """Groupoids with three orbits, covered by the first-two/last-two orbits."""
    specs = [
        ("units", union(units(1), units(1), units(1))),
        ("cyclic-mix", union(one_object_cyclic(2), units(1), one_object_cyclic(3))),
        ("pair-sandwich", union(pair(2), one_object_cyclic(2), pair(3))),
        ("heavy-torsion", union(one_object_cyclic(4), pair(2), one_object_cyclic(6))),
        ("free-action", union(action(3, [1, 2, 0]), units(1), pair(2))),
        ("double-torsion", union(one_object_cyclic(6), one_object_cyclic(2), units(1))),
    ]
    out = []
    for name, g in specs:
        orbs = orbits(g)
        assert len(orbs) == 3
        u1 = tuple(sorted(orbs[0] + orbs[1]))
        u2 = tuple(sorted(orbs[1] + orbs[2]))
        out.append((name, g, u1, u2))
    return out


COVERS = three_orbit_covers()


# -- decompose -----------------------------------------------------------------------


def _relabelled_covers():
    """Each three-orbit cover, its arrows renumbered at seeds 1 and 2."""
    from test_chains import relabelled  # test_chains imports this module via test_acceptance

    out = []
    for name, g, _u1, _u2 in COVERS:
        for seed in (1, 2):
            h = relabelled(g, seed)
            orbs = orbits(h)
            out.append((f"{name}-{seed}", h, orbs[0] + orbs[1], orbs[1] + orbs[2]))
    return out


def test_decompose_pieces_and_intersection():
    # each piece is the subcomplex of the ambient one on its positions, and
    # that is the Moore complex of the reduction by its unit set, built
    # independently
    cases = [(name, g, u1, u2, decompose(g, u1, u2)) for name, g, u1, u2 in COVERS]
    cases += [(name, g, u1, u2, decompose(g, u1, u2)) for name, g, u1, u2 in _relabelled_covers()]
    # a non-saturated direct decomposition is refused: U2 = {3} of pair(2) is
    # a face of arrow 1 (3 -> 0), which lies outside U2, so ∂ is not block
    # diagonal over the cover and no piece's homology can be read off the
    # ambient reduction (`test_positions_match_oracle_tuples` checks `_positions`
    # on such sets)
    g = pair(2)
    with pytest.raises(AssertionError, match="complement not closed under faces in degree 1: "
                                             "tuple 1 outside has a face inside"):
        chain_ses(MvDecomposition(g, (0, 3), (3,)), 3)
    for name, g, u1, u2, d in cases:
        assert d.u1 == tuple(sorted(u1)) and d.u2 == tuple(sorted(u2)), name
        assert set(d.u12) == set(u1) & set(u2), name
        ses = chain_ses(d, 3)
        for k, members in enumerate((d.u1, d.u2, d.u12)):
            expected = moore_complex(reduction(g, members), 3)
            pos = [lists[k] for lists in ses.positions]
            assert [len(p) for p in pos] == expected.dims, (name, members)
            for n in range(1, 4):
                rows = raw_rows(ses.total_complex.boundaries[n])
                block = [restrict(rows[r], pos[n]) for r in pos[n - 1]]
                assert block == raw_rows(expected.boundaries[n]), (name, members, n)


def test_positions_match_oracle_tuples():
    # membership read off the tables equals the test on every arrow of every
    # ambient tuple, for saturated covers and for sets that are not saturated
    cases = [(g, (u1, u2, tuple(sorted(set(u1) & set(u2)))))
             for _name, g, u1, u2 in COVERS + _relabelled_covers()]
    g = pair(2)  # units 0 and 3
    cases.append((g, ((0,), (3,), (0, 3), ())))
    g = union(action(2, [1, 0]), one_object_cyclic(2))  # units 0, 2 and 4
    cases.append((g, ((0,), (2, 4), (0, 4))))
    for g, unit_sets in cases:
        for members in unit_sets:
            positions = mv_module._positions(g, 3, members)
            assert positions == [_oracle_positions(g, n, members) for n in range(4)], members


def test_verify_refuses_positions_not_closed_under_faces(monkeypatch):
    # a U2-only degree-2 tuple added to the U1 and U12 position lists keeps
    # the sequence exact degreewise, but its faces lie outside those blocks
    name, g, u1, u2 = COVERS[3]
    d = decompose(g, u1, u2)
    original = mv_module._positions
    inside1 = set(original(g, 2, d.u1)[2])
    stray = next(p for p in original(g, 2, d.u2)[2] if p not in inside1)

    def leaky(g_, max_degree, members):
        out = original(g_, max_degree, members)
        if tuple(members) in (d.u1, d.u12):
            out[2] = sorted(out[2] + [stray])
        return out

    monkeypatch.setattr(mv_module, "_positions", leaky)
    with pytest.raises(AssertionError, match="positions not closed under faces in degree 2"):
        chain_ses(d, 2)
    # no piece complex is built or squared, so under `python -O` this verdict
    # rests on `_verify`'s closure raise alone
    program = "\n".join(
        [
            "import sys",
            "import groupoid_homology.mv as mv",
            "from groupoid_homology import chain_ses, decompose, disjoint_union,"
            " one_object_cyclic, orbits, pair",
            "if not sys.flags.optimize:",
            "    raise SystemExit('child is not optimized')",
            "g = disjoint_union(disjoint_union(one_object_cyclic(4), pair(2)), one_object_cyclic(6))",
            "o = orbits(g)",
            "d = decompose(g, o[0] + o[1], o[1] + o[2])",
            "original = mv._positions",
            "inside1 = set(original(g, 2, d.u1)[2])",
            "stray = next(p for p in original(g, 2, d.u2)[2] if p not in inside1)",
            "def leaky(g_, max_degree, members):",
            "    out = original(g_, max_degree, members)",
            "    if tuple(members) in (d.u1, d.u12):",
            "        out[2] = sorted(out[2] + [stray])",
            "    return out",
            "mv._positions = leaky",
            "chain_ses(d, 2)",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", program],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )
    assert proc.returncode != 0
    assert re.search(r"AssertionError: positions not closed under faces in degree 2: face \d+ outside",
                     proc.stderr), proc.stderr


def test_chain_ses_refuses_sets_that_miss_an_arrow():
    # built directly, past decompose's checks: arrow 1 of pair(2) runs from
    # unit 3 to unit 0, so no piece owns it
    d = MvDecomposition(pair(2), (0,), (3,))
    with pytest.raises(AssertionError, match="sum not surjective in degree 1"):
        chain_ses(d, 2)


def test_decompose_accepts_duplicates_and_any_order():
    g = union(units(1), units(1))
    d = decompose(g, [1, 0, 1], [1])
    assert d.u1 == (0, 1)
    assert d.u12 == (1,)


def test_decompose_non_unit_error():
    g = pair(2)  # units 0 and 3
    with pytest.raises(ValueError, match=r"U1 contains non-unit indices \[1\]"):
        decompose(g, [0, 1], [3])
    with pytest.raises(ValueError, match=r"U2 contains non-unit indices \[2\]"):
        decompose(g, [0, 3], [2])


def test_decompose_cover_error():
    g = union(units(1), units(1), units(1))
    with pytest.raises(ValueError, match=r"cover fails: units \[2\] lie in neither U1 nor U2"):
        decompose(g, [0], [1])


def test_decompose_saturation_error():
    g = pair(2)
    with pytest.raises(ValueError, match="U1 not saturated: arrow"):
        decompose(g, [0], [0, 3])
    with pytest.raises(ValueError, match="U2 not saturated: arrow"):
        decompose(g, [0, 3], [3])


# -- chain-level exactness (literal lattice statements) -------------------------------


@pytest.mark.parametrize("name,g,u1,u2", COVERS, ids=[c[0] for c in COVERS])
def test_chain_ses_exactness(name, g, u1, u2):
    d = decompose(g, u1, u2)
    ses = chain_ses(d, 3)
    for n in range(4):
        pos1, pos2, pos12 = ses.positions[n]
        dim1, dim2, dim12 = len(pos1), len(pos2), len(pos12)
        dim_total = ses.total_complex.dims[n]
        alpha, beta = mv_matrices(ses, n)
        assert alpha.rows == dim1 + dim2 and alpha.cols == dim12
        assert beta.rows == dim_total and beta.cols == dim1 + dim2
        # dimension bookkeeping of a two-set cover
        assert dim1 + dim2 == dim_total + dim12
        # composite vanishes
        assert beta.matmul(alpha).is_zero()
        # alpha is split injective, beta surjective (all invariant factors 1)
        assert invariant_factors(alpha) == [1] * dim12
        assert invariant_factors(beta) == [1] * dim_total
        # the exactness statement itself: ker(beta) = im(alpha) as lattices
        assert kernel_equals_image(beta, alpha)
        # the sequence's maps on chains are these matrices, on ambient chains
        # that vanish off the pieces
        rng = random.Random(n)
        x = [rng.randint(-3, 3) for _ in range(dim12)]
        y1, y2 = ses.to_pieces(n, extend(x, pos12, dim_total))
        assert (y1, y2) == (extend(x, pos12, dim_total), extend([-v for v in x], pos12, dim_total))
        assert restrict(y1, pos1) + restrict(y2, pos2) == alpha.mul_vector(x)
        y = [rng.randint(-3, 3) for _ in range(dim1 + dim2)]
        y1, y2 = extend(y[:dim1], pos1, dim_total), extend(y[dim1:], pos2, dim_total)
        assert ses.to_total(n, y1, y2) == beta.mul_vector(y)


@pytest.mark.parametrize("name,g,u1,u2", COVERS, ids=[c[0] for c in COVERS])
def test_invariant_factors_of_mv_matrices_match_oracles(name, g, u1, u2, monkeypatch):
    # α, β and every middle_homology pair (d1, d2) of the long exact sequence
    d = decompose(g, u1, u2)
    ses = chain_ses(d, 3)
    matrices = [m for n in range(4) for m in mv_matrices(ses, n)]
    pairs = []
    real_sweep = abelian_module.sweep_invariant_factors
    monkeypatch.setattr(
        abelian_module, "sweep_invariant_factors", lambda ms: pairs.append(ms) or real_sweep(ms)
    )
    long_exact_sequence(d, 3).verify_exactness()
    assert pairs
    for d1, d2 in pairs:
        assert d1.matmul(d2).is_zero()
        assert real_sweep([d1, d2]) == [
            oracles.smith_diag_by_elimination(raw_rows(d1)),
            oracles.smith_diag_by_elimination(raw_rows(d2)),
        ]
    for m in matrices:
        factors = invariant_factors(m)
        assert factors == oracles.smith_diag_by_elimination(raw_rows(m))
        assert len(factors) == oracles.rank_over_q(raw_rows(m))


@pytest.mark.parametrize("name,g,u1,u2", COVERS[:3], ids=[c[0] for c in COVERS[:3]])
def test_chain_maps_commute_with_boundaries(name, g, u1, u2):
    # ∂α = α∂ and ∂β = β∂ with the ambient ∂, on every basis chain of the
    # pieces; the maps' support checks also see ∂ keep each piece's chains on it
    d = decompose(g, u1, u2)
    ses = chain_ses(d, 3)
    for n in range(1, 4):
        boundary, dim = ses.total_complex.boundaries[n], ses.total_complex.dims[n]
        zero = [0] * dim
        pos1, pos2, pos12 = ses.positions[n]
        for p in pos12:
            x = extend([1], [p], dim)
            y1, y2 = ses.to_pieces(n, x)
            assert ses.to_pieces(n - 1, boundary.mul_vector(x)) == (
                boundary.mul_vector(y1), boundary.mul_vector(y2))
        pairs = [(extend([1], [p], dim), zero) for p in pos1] + [(zero, extend([1], [p], dim)) for p in pos2]
        for y1, y2 in pairs:
            assert boundary.mul_vector(ses.to_total(n, y1, y2)) == ses.to_total(
                n - 1, boundary.mul_vector(y1), boundary.mul_vector(y2))


def test_beta_degree_zero_shape():
    name, g, u1, u2 = COVERS[1]
    d = decompose(g, u1, u2)
    ses = chain_ses(d, 2)
    _, beta0 = mv_matrices(ses, 0)
    assert invariant_factors(beta0) == [1] * len(g.units)
    # the kernel is one copy of Z per shared unit
    kernel = oracles.saturated_kernel_basis(raw_rows(beta0), beta0.cols)
    assert [len(r) for r in kernel] == [len(d.u12)] * beta0.cols


def test_overlapping_cover_is_exact():
    g = union(one_object_cyclic(2), units(1))
    all_units = list(g.units)
    d = decompose(g, all_units, all_units)
    ses = chain_ses(d, 3)
    for n in range(4):
        alpha, beta = mv_matrices(ses, n)
        assert kernel_equals_image(beta, alpha)
        # intersection piece coincides with the ambient complex
        assert ses.positions[n][2] == list(range(ses.total_complex.dims[n]))


def test_empty_second_piece_gives_isomorphism():
    g = union(one_object_cyclic(3), units(1))
    d = decompose(g, list(g.units), [])
    ses = chain_ses(d, 3)
    for n in range(4):
        assert ses.positions[n][1:] == ([], [])
        assert invariant_factors(mv_matrices(ses, n)[1]) == [1] * ses.total_complex.dims[n]
    for n in range(3):
        assert ses.homology("piece1", n).group == ses.homology("total", n).group
    les = long_exact_sequence(d, 3)
    assert all(defect.is_trivial() for _, defect in les.verify_exactness())


# -- lifts ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,g,u1,u2", COVERS, ids=[c[0] for c in COVERS])
def test_lift_projects_back(name, g, u1, u2):
    d = decompose(g, u1, u2)
    ses = chain_ses(d, 2)
    rng_chain = random.Random(hash(name) & 0xFFFF)
    for n in range(3):
        chain = [rng_chain.randint(-3, 3) for _ in range(ses.total_complex.dims[n])]
        pos1, pos2, pos12 = ses.positions[n]
        _, beta = mv_matrices(ses, n)
        for seed in (None, 1, 2):
            rng = None if seed is None else random.Random(seed)
            y1, y2 = ses.lift(n, chain, rng=rng)
            assert ses.to_total(n, y1, y2) == chain
            if seed is not None:  # the U12 splits are drawn in increasing position order
                draws = random.Random(seed)
                assert restrict(y1, pos12) == [draws.randint(-3, 3) for _ in pos12]
            assert y1 == extend(restrict(y1, pos1), pos1, len(chain))
            assert y2 == extend(restrict(y2, pos2), pos2, len(chain))
            assert beta.mul_vector(restrict(y1, pos1) + restrict(y2, pos2)) == chain
    # a chain of the wrong length, or one that does not vanish off the piece
    # it is handed as, is refused
    dims = ses.total_complex.dims
    for call in (lambda: ses.lift(0, [0] * (dims[0] + 1)),
                 lambda: ses.to_pieces(0, [0] * (dims[0] + 1)),
                 lambda: ses.to_total(0, [0] * dims[0], [0] * (dims[0] + 1))):
        with pytest.raises(ValueError, match="shape mismatch: chain length does not match ambient dimension"):
            call()
    pos1, pos2, pos12 = ses.positions[1]
    only1 = min(set(pos1) - set(pos2))
    only2 = min(set(pos2) - set(pos1))
    with pytest.raises(ValueError, match=f"support mismatch: chain nonzero at position {only1}, "
                                         "outside U12 in degree 1"):
        ses.to_pieces(1, extend([1], [only1], dims[1]))
    with pytest.raises(ValueError, match=f"support mismatch: chain nonzero at position {only2}, "
                                         "outside U1 in degree 1"):
        ses.to_total(1, extend([1], [only2], dims[1]), [0] * dims[1])
    with pytest.raises(ValueError, match=f"support mismatch: chain nonzero at position {only1}, "
                                         "outside U2 in degree 1"):
        ses.to_total(1, [0] * dims[1], extend([1], [only1], dims[1]))


def test_randomized_lift_differs_but_projects():
    # on a cover with shared tuples the randomized lift really explores fibers
    name, g, u1, u2 = COVERS[1]
    d = decompose(g, u1, u2)
    ses = chain_ses(d, 2)
    chain = [1] * ses.total_complex.dims[1]
    pos1, pos2, _ = ses.positions[1]
    y1, y2 = ses.lift(1, chain)
    seen = {tuple(restrict(y1, pos1) + restrict(y2, pos2))}
    for seed in range(8):
        y1, y2 = ses.lift(1, chain, rng=random.Random(seed))
        seen.add(tuple(restrict(y1, pos1) + restrict(y2, pos2)))
    assert len(seen) > 1
    _, beta = mv_matrices(ses, 1)
    assert all(beta.mul_vector(list(v)) == chain for v in seen)


# -- connecting classes ----------------------------------------------------------------


def test_connecting_rejects_non_cycles():
    name, g, u1, u2 = COVERS[3]
    d = decompose(g, u1, u2)
    ses = chain_ses(d, 2)
    # a single 1-tuple of a non-unit arrow is never a cycle here
    chain = [0] * ses.total_complex.dims[1]
    # the degree-1 basis is the arrows, in order
    target = next(a for a in range(g.arrows) if g.source[a] != g.range_[a])
    chain[target] = 1
    with pytest.raises(ValueError, match="not a cycle"):
        ses.connecting(1, chain)


def test_connecting_degree_zero_is_trivial():
    name, g, u1, u2 = COVERS[0]
    d = decompose(g, u1, u2)
    ses = chain_ses(d, 1)
    cycle = ses.homology("total", 0).cycle_reps[0]
    result = ses.connecting(0, cycle)
    assert result.degree == 0
    assert result.witness == []
    assert result.coords == ()
    assert result.is_boundary


@pytest.mark.parametrize("name,g,u1,u2", COVERS, ids=[c[0] for c in COVERS])
def test_connecting_on_homology_generators(name, g, u1, u2):
    d = decompose(g, u1, u2)
    ses = chain_ses(d, 3)
    piece12 = moore_complex(reduction(g, d.u12), 3)
    for n in range(1, 3):
        h_total = ses.homology("total", n)
        h_below = ses.homology("piece12", n - 1)
        pos12 = ses.positions[n - 1][2]
        for z in h_total.cycle_reps:
            result = ses.connecting(n, z)
            assert result.degree == n
            # witness is an intersection chain whose image is the lift boundary;
            # its class coordinates match the intersection homology's own accounting
            assert result.witness == extend(restrict(result.witness, pos12), pos12, len(result.witness))
            assert result.coords == h_below.class_coords(result.witness)
            # boundary claim is the literal lattice membership, in the
            # intersection's own complex
            assert result.is_boundary == oracles.lattice_contains(
                raw_rows(piece12.boundaries[n]), [restrict(result.witness, pos12)]
            )
            # ... and reads as a zero class
            assert result.is_boundary == all(c == 0 for c in result.coords)
            # lift independence: randomized lifts give the same class
            for seed in (11, 12):
                alt = ses.connecting(n, z, rng=random.Random(seed))
                assert alt.coords == result.coords
                assert alt.is_boundary == result.is_boundary


def _all_units_covers():
    g = union(one_object_cyclic(2), units(1))
    h = union(one_object_cyclic(3), units(1))
    return [
        ("whole-overlap", g, tuple(g.units), tuple(g.units)),
        ("empty-second", h, tuple(h.units), ()),
    ]


MV_CORPUS = COVERS + _all_units_covers()


@pytest.mark.parametrize("name,g,u1,u2", MV_CORPUS, ids=[c[0] for c in MV_CORPUS])
def test_connecting_map_vanishes_on_saturated_covers(name, g, u1, u2):
    # U2 minus U1 is saturated, so G splits over the cover: the canonical lift
    # of a cycle is a cycle and every connecting class is zero
    d = decompose(g, u1, u2)
    ses = chain_ses(d, 3)
    for n in range(1, 3):
        for z in ses.homology("total", n).cycle_reps:
            assert ses.connecting(n, z).witness == [0] * ses.total_complex.dims[n - 1]
            for seed in (5, 6):
                result = ses.connecting(n, z, rng=random.Random(seed))
                assert result.is_boundary and all(c == 0 for c in result.coords)
    les = long_exact_sequence(d, 3)
    assert [les.nodes[i][0] for i in (2, 5, 8)] == ["H_2(G)", "H_1(G)", "H_0(G)"]
    assert all(delta.is_zero() for delta in les.arrows[2::3])


def _zero_intersection_homology(ses):
    """Fault injection: the intersection's cached homology, swapped for that of
    a complex with the ambient dims and zero boundaries, where no nonzero chain
    bounds."""
    dims = ses.total_complex.dims
    zeros = [IntegerMatrix(dims[n - 1] if n else 0, dims[n]) for n in range(len(dims))]
    zeroed = FreeChainComplex(dims, zeros)
    for n in range(ses.max_degree):
        ses._homology[("piece12", n)] = homology_results(zeroed, 0, n)[n]
    return zeroed


def test_connecting_reports_a_nonboundary_witness():
    # a randomized lift leaves a nonzero witness that bounds in the true
    # intersection complex; under the fault it must be reported as no boundary
    verdicts = []
    for name, g, u1, u2 in COVERS:
        ses = chain_ses(decompose(g, u1, u2), 3)
        zeroed = _zero_intersection_homology(ses)
        for n in range(1, 3):
            for z in ses.homology("total", n).cycle_reps:
                for seed in range(4):
                    result = ses.connecting(n, z, rng=random.Random(seed))
                    assert result.coords == ses.homology("piece12", n - 1).class_coords(
                        result.witness
                    )
                    assert result.is_boundary == oracles.lattice_contains(
                        raw_rows(zeroed.boundaries[n]), [result.witness]
                    )
                    assert result.is_boundary == all(c == 0 for c in result.coords)
                    verdicts.append(result.is_boundary)
    assert False in verdicts and True in verdicts


# -- the long exact sequence -----------------------------------------------------------


@pytest.mark.parametrize("name,g,u1,u2", COVERS, ids=[c[0] for c in COVERS])
def test_les_exactness(name, g, u1, u2):
    d = decompose(g, u1, u2)
    les = long_exact_sequence(d, 3)
    labels = [node[0] for node in les.nodes]
    assert labels == [
        "H_2(G|U12)", "H_2(G|U1) ⊕ H_2(G|U2)", "H_2(G)",
        "H_1(G|U12)", "H_1(G|U1) ⊕ H_1(G|U2)", "H_1(G)",
        "H_0(G|U12)", "H_0(G|U1) ⊕ H_0(G|U2)", "H_0(G)",
        "0",
    ]
    assert len(les.arrows) == len(les.nodes) - 1
    defects = les.verify_exactness()
    assert [label for label, _ in defects] == labels[1:-1]
    for label, defect in defects:
        assert defect.is_trivial(), (name, label, defect)


@pytest.mark.parametrize("name,g,u1,u2", COVERS, ids=[c[0] for c in COVERS])
def test_les_arrow_endpoints_line_up(name, g, u1, u2):
    d = decompose(g, u1, u2)
    les = long_exact_sequence(d, 3)
    for i, arrow in enumerate(les.arrows):
        assert arrow.source is les.nodes[i][1]
        assert arrow.target is les.nodes[i + 1][1]


def test_les_exactness_by_enumeration():
    # all-finite interior nodes admit an element-by-element exactness check
    g = union(one_object_cyclic(2), one_object_cyclic(4), one_object_cyclic(3))
    orbs = orbits(g)
    d = decompose(g, orbs[0] + orbs[1], orbs[1] + orbs[2])
    les = long_exact_sequence(d, 3)
    checked = 0
    for i in range(1, len(les.nodes) - 1):
        groups = [les.nodes[j][2] for j in (i - 1, i, i + 1)]
        orders = [h.order() for h in groups]
        if any(o is None or o > 10**4 for o in orders):
            continue
        rel_a = les.nodes[i - 1][1].relations
        rel_m = les.nodes[i][1].relations
        rel_t = les.nodes[i + 1][1].relations
        f = les.arrows[i - 1].matrix
        h = les.arrows[i].matrix
        assert oracles.exactness_by_enumeration(
            [rel_a.row(r) for r in range(rel_a.rows)],
            [f.row(r) for r in range(f.rows)],
            [rel_m.row(r) for r in range(rel_m.rows)],
            [h.row(r) for r in range(h.rows)],
            [rel_t.row(r) for r in range(rel_t.rows)],
        ), les.nodes[i][0]
        checked += 1
    assert checked >= 4  # the torsion corner of the sequence really was enumerated


def test_les_json_shape():
    name, g, u1, u2 = COVERS[0]
    d = decompose(g, u1, u2)
    les = long_exact_sequence(d, 2)
    records = les.to_json()
    assert len(records) == len(les.nodes)
    for rec in records[:-1]:
        assert set(rec) == {"label", "group", "map_matrix"}
        assert set(rec["group"]) == {"rank", "torsion"}
        assert isinstance(rec["map_matrix"], list)
    assert records[-1]["label"] == "0"
    assert records[-1]["map_matrix"] == []
    assert records[-1]["group"] == {"rank": 0, "torsion": []}


def test_les_beta_surjects_onto_h0():
    # degree-0 tail: H_0(U1) + H_0(U2) -> H_0(G) -> 0 must be onto
    name, g, u1, u2 = COVERS[3]
    d = decompose(g, u1, u2)
    les = long_exact_sequence(d, 2)
    beta0 = les.arrows[-2]  # the last arrow is the map into the terminal 0
    assert les.nodes[-2][0] == "H_0(G)"
    assert beta0.target.generators == len(orbits(g))
    assert invariant_factors(beta0.matrix) == [1] * beta0.target.generators


# -- consistency with orbit decomposition ---------------------------------------------


@pytest.mark.parametrize("name,g,u1,u2", COVERS, ids=[c[0] for c in COVERS])
def test_homology_splits_over_cover_parts(name, g, u1, u2):
    d = decompose(g, u1, u2)
    ses = chain_ses(d, 3)
    only1 = tuple(sorted(set(u1) - set(d.u12)))
    only2 = tuple(sorted(set(u2) - set(d.u12)))
    r1 = moore_complex(reduction(g, only1), 3)
    r12 = moore_complex(reduction(g, d.u12), 3)
    r2 = moore_complex(reduction(g, only2), 3)
    for n in range(3):
        expected = homology_results(r1, 0, n)[n].group.direct_sum(
            homology_results(r12, 0, n)[n].group
        ).direct_sum(homology_results(r2, 0, n)[n].group)
        assert ses.homology("total", n).group == expected, (name, n)


# -- naturality under refining the cover -----------------------------------------------


def _oracle_positions(g, n, members):
    """Positions among the oracle's sorted ambient n-tuples of those whose
    arrows all have both endpoints in the unit set (degree 0: the units in it)."""
    mem = set(members)
    return [
        i for i, t in enumerate(oracles.nerve_tuples(g, n))
        if all(g.source[a] in mem and g.range_[a] in mem for a in t)
    ]


def _inclusion_matrix(g, sub_members, big_members, n):
    """Basis inclusion of a smaller piece's nerve into a bigger one's, matched
    through the ambient tuples."""
    sub, big = _oracle_positions(g, n, sub_members), _oracle_positions(g, n, big_members)
    big_pos = {p: j for j, p in enumerate(big)}
    rows = [[0] * len(sub) for _ in big]
    for j, p in enumerate(sub):
        rows[big_pos[p]][j] = 1
    return IntegerMatrix.from_rows(rows, cols=len(sub))


def test_naturality_ladder_under_cover_refinement():
    g = union(one_object_cyclic(2), units(1), one_object_cyclic(3))
    orbs = orbits(g)
    small = decompose(g, orbs[0] + orbs[1], orbs[1] + orbs[2])
    big = decompose(g, orbs[0] + orbs[1] + orbs[2], orbs[1] + orbs[2])
    ses_small = chain_ses(small, 2)
    ses_big = chain_ses(big, 2)
    for n in range(3):
        j1 = _inclusion_matrix(g, small.u1, big.u1, n)
        j2 = _inclusion_matrix(g, small.u2, big.u2, n)
        j12 = _inclusion_matrix(g, small.u12, big.u12, n)
        j_pieces = block_diag(j1, j2)
        alpha_big, beta_big = mv_matrices(ses_big, n)
        alpha_small, beta_small = mv_matrices(ses_small, n)
        # total maps agree through the piece inclusions (same ambient basis)
        assert beta_big.matmul(j_pieces) == beta_small
        # intersection maps ladder up through the inclusions
        assert alpha_big.matmul(j12) == j_pieces.matmul(alpha_small)
    # both covers produce exact sequences on the same groupoid
    for les in (long_exact_sequence(small, 2), long_exact_sequence(big, 2)):
        assert all(defect.is_trivial() for _, defect in les.verify_exactness())


def test_cover_of_a_reduction_matches_fresh_labels():
    # the ambient is itself a reduction; the sequence must equal the one on
    # a copy read back from its JSON
    g = union(pair(2), one_object_cyclic(2), units(1), one_object_cyclic(3))
    orbs = orbits(g)
    ambient = reduction(g, orbs[1] + orbs[2] + orbs[3])
    fresh = FiniteGroupoid.from_json(ambient.to_json())
    orbs = orbits(ambient)
    u1, u2 = orbs[0] + orbs[1], orbs[1] + orbs[2]
    expected = long_exact_sequence(decompose(fresh, u1, u2), 3).to_json()
    assert long_exact_sequence(decompose(ambient, u1, u2), 3).to_json() == expected


# -- one reduction per cover ----------------------------------------------------------


def _corpus_union_covers(seed):
    """Relabelled unions of three consecutive corpus groupoids, each covered by
    two overlapping thirds of its orbits, plus an empty-second and a
    whole-overlap cover of one of them."""
    from test_acceptance import corpus  # test_acceptance imports this module
    from test_chains import relabelled

    groupoids = [g for _, g in corpus()]
    out = []
    for i, (name, _) in enumerate(corpus()):
        h = relabelled(union(*(groupoids[(i + k) % len(groupoids)] for k in range(3))), seed)
        orbs = orbits(h)
        first, mid, last = (sum(orbs[k::3], ()) for k in range(3))
        out.append((f"{name}+2-{seed}", h, first + mid, mid + last))
    out.append((f"empty-second-{seed}", h, list(h.units), []))
    out.append((f"whole-overlap-{seed}", h, list(h.units), list(h.units)))
    return out


@pytest.mark.parametrize("seed", (1, 2))
def test_piece_results_equal_the_direct_route(seed):
    # each part's result, read off the one ambient reduction with no
    # re-indexing, equals the one `homology_results` gives on the part's own
    # complex, the Moore complex of the reduction by its unit set, whose basis
    # is in `_positions` order: same group and orders, representatives that
    # vanish off the positions and are the direct ones on them, and the same
    # class coordinates of random cycles
    rng = random.Random(seed)
    covers = _corpus_union_covers(seed) + [c for c in _relabelled_covers() if c[0].endswith(f"-{seed}")]
    for name, g, u1, u2 in covers:
        d = decompose(g, u1, u2)
        ses = chain_ses(d, 3)
        dims = ses.total_complex.dims
        parts = [("total", ses.total_complex, [list(range(dim)) for dim in dims])]
        for k, members in enumerate((d.u1, d.u2, d.u12)):
            pos = [lists[k] for lists in ses.positions]
            parts.append((("piece1", "piece2", "piece12")[k], moore_complex(reduction(g, members), 3), pos))
        for part, complex_, pos in parts:
            for n, expected in enumerate(homology_results(complex_)):
                h = ses.homology(part, n)
                assert h.group == expected.group, (name, part, n)
                assert h.presentation.orders == expected.presentation.orders, (name, part, n)
                assert [extend(z, pos[n], dims[n]) for z in expected.cycle_reps] == h.cycle_reps, (name, part, n)
                for _ in range(3):
                    # a random combination of the representatives plus a boundary
                    coeffs = [rng.randint(-4, 4) for _ in expected.cycle_reps]
                    filler = [rng.randint(-2, 2) for _ in range(complex_.dims[n + 1])]
                    cycle = complex_.boundaries[n + 1].mul_vector(filler)
                    for c, rep in zip(coeffs, expected.cycle_reps):
                        cycle = [x + c * y for x, y in zip(cycle, rep)]
                    coords = expected.class_coords(cycle)
                    assert h.class_coords(extend(cycle, pos[n], dims[n])) == coords, (name, part, n)
                    orders = expected.presentation.orders
                    assert coords == tuple(c % d if d else c for c, d in zip(coeffs, orders))


def test_chain_ses_reduces_the_ambient_complex_once(monkeypatch):
    # no part's complex goes through `homology_results`: one lattice stage on
    # the ambient complex serves all four parts in every degree
    assert not hasattr(mv_module, "homology_results")
    reduced = []
    real_lattices = mv_module._lattices
    monkeypatch.setattr(mv_module, "_lattices", lambda c, q, top: reduced.append(c) or real_lattices(c, q, top))

    def refuse(*args, **kwargs):
        raise AssertionError("homology_results called")

    monkeypatch.setattr(chains_module, "homology_results", refuse)
    name, g, u1, u2 = COVERS[3]
    ses = chain_ses(decompose(g, u1, u2), 3)
    assert reduced == []
    for part in ("total", "piece1", "piece2", "piece12"):
        for n in range(3):
            ses.homology(part, n)
    for n in range(1, 3):
        for z in ses.homology("total", n).cycle_reps:
            ses.connecting(n, z)
    assert reduced == [ses.total_complex]
    les = long_exact_sequence(decompose(g, u1, u2), 3)
    assert len(reduced) == 2 and reduced[1] is les.ses.total_complex


def test_split_raise_survives_optimize_flag():
    # the sum of a degree-1 cycle of U1 ∖ U2 (positions 0, 1) and one of
    # U2 ∖ U1 (positions 3, 4, 5), handed over by the lattice stage, lies in
    # neither piece: it must raise, not be dropped
    program = "\n".join(
        [
            "import groupoid_homology.mv as mv",
            "from groupoid_homology import chain_ses, decompose, disjoint_union,"
            " one_object_cyclic, orbits, units",
            "g = disjoint_union(disjoint_union(one_object_cyclic(2), units(1)),"
            " one_object_cyclic(3))",
            "o = orbits(g)",
            "ses = chain_ses(decompose(g, o[0] + o[1], o[1] + o[2]), 2)",
            "real = mv._lattices",
            "def crossed(complex_, q, top):",
            "    out = real(complex_, q, top)",
            "    cycles = out[1][0]",
            "    a = next(v for v in cycles if max(v) < 2)",
            "    b = next(v for v in cycles if min(v) > 2)",
            "    cycles.append({**a, **b})",
            "    return out",
            "mv._lattices = crossed",
            "ses.homology('piece12', 0)",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", program],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )
    assert proc.returncode != 0
    assert re.search(r"AssertionError: lattice vector in degree 1 lies in neither U1 nor U2: "
                     r"position [01] is outside U2 and [345] outside U1", proc.stderr), proc.stderr


# -- one nerve per cover --------------------------------------------------------------


def test_chain_ses_builds_one_moore_complex(monkeypatch, tmp_path):
    # the pieces are subcomplexes of the ambient complex, so only the ambient
    # nerve is enumerated and only it is checked against the budget
    built = []

    def counting(g, *args, **kwargs):
        built.append(g)
        return moore_complex(g, *args, **kwargs)

    monkeypatch.setattr(mv_module, "moore_complex", counting)
    name, g, u1, u2 = COVERS[3]
    chain_ses(decompose(g, u1, u2), 3)
    assert len(built) == 1 and built[0] is g
    # 3 + 3 + 3 units-groupoid tuples in degrees 0..2 exceed a budget of 7
    path = gen_file(tmp_path, "units:3", "u3.json")
    code, out, err = run_cli(
        ["mv", "-i", path, "-N", "2", "--u1", "0,1", "--u2", "1,2", "--budget", "7"]
    )
    assert (code, out, err) == (1, "", "error: nerve budget exceeded at degree 2\n")


# -- verdicts survive python -O ------------------------------------------------------


def _checks_after(*corruption: str) -> subprocess.CompletedProcess:
    """Run the statements `corruption` on the degree 0..2 sequence `ses` of a
    three-orbit cover, then `_verify`, under `python -O`."""
    program = "\n".join(
        [
            "from groupoid_homology import chain_ses, decompose, disjoint_union,"
            " one_object_cyclic, orbits, units",
            "g = disjoint_union(disjoint_union(one_object_cyclic(2), units(1)),"
            " one_object_cyclic(3))",
            "o = orbits(g)",
            "ses = chain_ses(decompose(g, o[0] + o[1], o[1] + o[2]), 2)",
            *corruption,
            "ses._verify()",
        ]
    )
    return subprocess.run(
        [sys.executable, "-O", "-c", program],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )


def test_verify_raises_under_optimize_flag():
    # `python -O` strips bare asserts; a degree-1 ambient position that no
    # piece lists any more must still be caught
    proc = _checks_after("del ses.positions[1][0][0]")
    assert proc.returncode != 0
    assert "AssertionError: sum not surjective in degree 1" in proc.stderr


# Each corruption keeps the earlier checks passing, so it reaches one given raise;
# each id names the property of α and β, or of ∂ over the cover, that the
# corruption breaks.  In degree 1 the lists are U1 = [0, 1, 2], U2 = [2, 3, 4, 5]
# and U12 = [2]; ambient column 0 of ∂_2 is a U1 ∖ U2 tuple and column 4 the
# U12 tuple.  block-diagonal gives tuple 0 the U12 face 2, which only the U2
# rows' check sees.  composite, split and lift edit the lists after
# construction and apply a map at once, before `_verify` runs again: the maps'
# own support checks must catch that α(x) = (x, -x) leaves a piece, that x
# leaves U12, and that a lift loses part of its chain.
VERIFY_FAULTS = [
    pytest.param(
        ["ses.positions[1][2][0] = 1", "ses.to_total(1, *ses.to_pieces(1, [0, 1, 0, 0, 0, 0]))"],
        "ValueError: support mismatch: chain nonzero at position 1, outside U2 in degree 1",
        id="composite",
    ),
    pytest.param(
        ["ses.positions[1][2].clear()", "ses.to_pieces(1, [0, 0, 1, 0, 0, 0])"],
        "ValueError: support mismatch: chain nonzero at position 2, outside U12 in degree 1",
        id="split",
    ),
    pytest.param(
        ["ses.positions[1][1].remove(3)", "ses.lift(1, [0, 0, 0, 1, 0, 0])"],
        "AssertionError: lift failed to project back to the chain",
        id="lift",
    ),
    pytest.param(
        ["ses.positions[1][2].append(2)"],
        "AssertionError: U12 positions not increasing in degree 1",
        id="increasing",
    ),
    pytest.param(
        ["ses.positions[1][0].append(3)"],
        "AssertionError: U1 ∩ U2 is not U12 in degree 1",
        id="rank",
    ),
    pytest.param(
        ["ses.total_complex.boundaries[2]._dicts[0][4] = 1"],
        "AssertionError: positions not closed under faces in degree 2: face 0 outside",
        id="intersection-square",
    ),
    pytest.param(
        ["ses.total_complex.boundaries[2]._dicts[3][0] = 1"],
        "AssertionError: positions not closed under faces in degree 2: face 3 outside",
        id="sum-square",
    ),
    pytest.param(
        ["ses.total_complex.boundaries[2]._dicts[2][0] = 1"],
        "AssertionError: complement not closed under faces in degree 2: tuple 0 outside has a face inside",
        id="block-diagonal",
    ),
]


@pytest.mark.parametrize("corruption,message", VERIFY_FAULTS)
def test_verify_fault_reaches_its_raise_under_optimize_flag(corruption, message):
    proc = _checks_after(*corruption)
    assert proc.returncode != 0
    assert message in proc.stderr, proc.stderr


def test_connecting_raise_survives_optimize_flag():
    # a randomized lift of the zero cycle puts r and -r on the U12 tuple of
    # degree 2, so the witness of degree 1 is r at the U12 position 2; once
    # that position is struck from the U12 list, the witness leaves U12
    program = "\n".join(
        [
            "import random",
            "from groupoid_homology import chain_ses, decompose, disjoint_union,"
            " one_object_cyclic, orbits, units",
            "g = disjoint_union(disjoint_union(one_object_cyclic(2), units(1)),"
            " one_object_cyclic(3))",
            "o = orbits(g)",
            "ses = chain_ses(decompose(g, o[0] + o[1], o[1] + o[2]), 2)",
            "zero = [0] * ses.total_complex.dims[2]",
            "print(ses.connecting(2, zero, rng=random.Random(0)).witness)",
            "ses.positions[1][2].clear()",
            "ses.connecting(2, zero, rng=random.Random(0))",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", program],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )
    assert proc.returncode != 0 and proc.stdout == "[0, 0, 3, 0, 0, 0]\n"
    assert "AssertionError: boundary of the lift is not an intersection chain" in proc.stderr
