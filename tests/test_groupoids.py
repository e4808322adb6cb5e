"""Tests for finite groupoids: axioms, presets, nerve, Moore complex, orbits.

Frozen homology values come from closed forms computed independently in
oracles.py (periodic resolutions for one-object cyclic groupoids) and from
hand calculations pinned in comments; simplicial identities and pushforward
properties are checked exhaustively on small nerves.
"""

import itertools
import random

import pytest

from groupoid_homology import (
    FinAbGroup,
    FiniteGroupoid,
    IntegerMatrix,
    SparseMatrix,
    action,
    disjoint_union,
    face,
    homology_group,
    homology_int,
    homology_mod,
    is_saturated,
    moore_complex,
    nerve,
    one_object_cyclic,
    orbits,
    pair,
    pushforward_matrix,
    reduction,
    saturation_witness,
    units,
)

from groupoid_homology import groupoids
from groupoid_homology.groupoids import _level_sizes

import oracles


def cyclic_data(m):
    """Raw constructor arguments for the one-object cyclic groupoid."""
    return dict(
        arrows=m,
        units=[0],
        source=[0] * m,
        range_=[0] * m,
        inverse=[(-i) % m for i in range(m)],
        compose={(i, j): (i + j) % m for i in range(m) for j in range(m)},
    )


# -- axiom validation ----------------------------------------------------------------


def test_presets_validate():
    for g in (
        units(1),
        units(4),
        one_object_cyclic(1),
        one_object_cyclic(5),
        pair(3),
        action(2, [1, 0]),
        action(4, [1, 0]),
        action(6, [1, 2, 0]),
        disjoint_union(one_object_cyclic(2), pair(2)),
    ):
        g.validate()  # re-runs the exhaustive check


def test_structure_map_length_error():
    data = cyclic_data(2)
    data["source"] = [0]
    with pytest.raises(ValueError, match="structure maps must cover every arrow"):
        FiniteGroupoid(**data)


def test_out_of_bounds_error():
    data = cyclic_data(2)
    data["inverse"] = [0, 5]
    with pytest.raises(ValueError, match="inverse of arrow 1 out of bounds"):
        FiniteGroupoid(**data)


def test_source_not_unit_error():
    with pytest.raises(ValueError, match="source of arrow 1 is not a unit"):
        FiniteGroupoid(2, [0], [0, 1], [0, 0], [0, 1], {})


def test_unit_not_own_endpoint_error():
    with pytest.raises(ValueError, match="unit law violated at arrow 1: unit is not its own endpoint"):
        FiniteGroupoid(2, [0, 1], [0, 0], [0, 0], [0, 1], {})


def test_composition_missing_error():
    data = cyclic_data(2)
    del data["compose"][(1, 1)]
    with pytest.raises(ValueError, match=r"composition missing for composable pair \(1, 1\)"):
        FiniteGroupoid(**data)


def test_composition_non_composable_error():
    g = units(2)
    compose = {(0, 0): 0, (1, 1): 1, (0, 1): 0}
    with pytest.raises(ValueError, match=r"composition defined for non-composable pair \(0, 1\)"):
        FiniteGroupoid(2, [0, 1], list(g.source), list(g.range_), list(g.inverse), compose)


def test_composition_endpoints_error():
    compose = {(0, 0): 1, (1, 1): 1}
    with pytest.raises(ValueError, match=r"composition endpoints wrong at pair \(0, 0\)"):
        FiniteGroupoid(2, [0, 1], [0, 1], [0, 1], [0, 1], compose)


def test_unit_composition_law_error():
    data = cyclic_data(3)
    data["compose"][(1, 0)] = 2
    with pytest.raises(ValueError, match="unit law violated at arrow 1"):
        FiniteGroupoid(**data)


def test_inverse_law_error():
    data = cyclic_data(3)
    data["inverse"] = [0, 1, 2]  # arrow 1's inverse must be arrow 2
    with pytest.raises(ValueError, match="inverse law violated at arrow 1"):
        FiniteGroupoid(**data)


def test_associativity_error():
    data = cyclic_data(5)
    data["compose"][(2, 2)] = 3  # should be 4; units and inverses untouched
    with pytest.raises(ValueError, match="associativity violated at arrows"):
        FiniteGroupoid(**data)


# -- presets -------------------------------------------------------------------------


def test_units_preset():
    g = units(3)
    assert g.arrows == 3
    assert g.units == (0, 1, 2)
    assert g.source == g.range_ == g.inverse == (0, 1, 2)
    with pytest.raises(ValueError, match="at least one point"):
        units(0)


def test_cyclic_preset():
    g = one_object_cyclic(4)
    assert g.arrows == 4
    assert g.units == (0,)
    assert g.inverse == (0, 3, 2, 1)
    assert g.compose[(2, 3)] == 1
    with pytest.raises(ValueError, match="cyclic order must be >= 1"):
        one_object_cyclic(0)


def test_pair_preset():
    g = pair(3)
    assert g.arrows == 9
    assert len(g.units) == 3
    # arrow (a, b) goes from b to a and composes like matrix units
    for a in range(3):
        for b in range(3):
            arrow = a * 3 + b
            assert g.source[arrow] == b * 3 + b
            assert g.range_[arrow] == a * 3 + a
            assert g.inverse[arrow] == b * 3 + a
    assert g.compose[(0 * 3 + 1, 1 * 3 + 2)] == 0 * 3 + 2
    with pytest.raises(ValueError, match="at least one point"):
        pair(0)


def test_action_preset():
    g = action(2, [1, 0])
    assert g.arrows == 4
    assert g.units == (0, 2)
    # arrow (x, 1) runs from x to the swapped point
    assert g.range_[0 * 2 + 1] == 2
    assert g.range_[1 * 2 + 1] == 0
    with pytest.raises(ValueError, match="permutation order does not divide m"):
        action(3, [1, 0])
    with pytest.raises(ValueError, match="action preset needs m >= 1 and a permutation"):
        action(2, [0, 0])
    with pytest.raises(ValueError, match="action preset needs m >= 1 and a permutation"):
        action(0, [0])


def test_disjoint_union_structure():
    a, b = one_object_cyclic(2), units(2)
    g = disjoint_union(a, b)
    assert g.arrows == 4
    assert g.units == (0, 2, 3)
    assert g.source == (0, 0, 2, 3)
    assert g.compose[(1, 1)] == 0
    assert g.compose[(2, 2)] == 2
    assert (1, 2) not in g.compose


# -- nerve and faces -----------------------------------------------------------------


@pytest.mark.parametrize(
    "g,expected_dims",
    [
        (units(1), [1, 1, 1, 1]),
        (units(3), [3, 3, 3, 3]),
        (one_object_cyclic(2), [1, 2, 4, 8]),
        (one_object_cyclic(3), [1, 3, 9, 27]),
        (pair(2), [2, 4, 8, 16]),
        (action(2, [1, 0]), [2, 4, 8, 16]),
        (disjoint_union(pair(2), one_object_cyclic(3)), [3, 7, 17, 43]),
    ],
)
def test_nerve_sizes(g, expected_dims):
    assert list(_level_sizes(g, 3)) == expected_dims[1:]
    assert [len(nerve(g, n)) for n in range(4)] == expected_dims


def test_nerve_level_contents():
    g = one_object_cyclic(2)
    assert nerve(g, 0).tuples == [(0,)]
    assert nerve(g, 1).tuples == [(0,), (1,)]
    lvl = nerve(g, 2)
    assert set(lvl.tuples) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert lvl.index(lvl.tuples[2]) == 2
    assert (1, 1) in lvl and (2, 1) not in lvl
    with pytest.raises(ValueError, match="negative degree"):
        nerve(g, -1)


def test_face_values_degree_one():
    g = disjoint_union(one_object_cyclic(2), units(1))
    # arrow 1 is the flip at unit 0; arrow 2 the extra unit
    assert face(g, 1, 0, (1,)) == (0,)
    assert face(g, 1, 1, (1,)) == (0,)
    assert face(g, 1, 0, (2,)) == (2,)


def test_face_composes_interior():
    g = one_object_cyclic(5)
    t = (2, 4, 3)
    assert face(g, 3, 0, t) == (4, 3)
    assert face(g, 3, 1, t) == ((2 + 4) % 5, 3)
    assert face(g, 3, 2, t) == (2, (4 + 3) % 5)
    assert face(g, 3, 3, t) == (2, 4)


def test_face_errors():
    g = one_object_cyclic(3)
    with pytest.raises(ValueError, match="composable tuple of positive length"):
        face(g, 0, 0, ())
    with pytest.raises(ValueError, match="composable tuple of positive length"):
        face(g, 2, 0, (1,))
    with pytest.raises(ValueError, match="index out of range"):
        face(g, 1, 2, (1,))


@pytest.mark.parametrize(
    "g",
    [one_object_cyclic(3), pair(2), action(2, [1, 0]), disjoint_union(units(1), one_object_cyclic(2))],
)
def test_simplicial_identities(g):
    # d_i d_j = d_{j-1} d_i for i < j, exhaustively in degree 3
    for t in nerve(g, 3).tuples:
        for j in range(4):
            for i in range(j):
                left = face(g, 2, i, face(g, 3, j, t))
                right = face(g, 2, j - 1, face(g, 3, i, t))
                assert left == right, (t, i, j)


def test_pushforward_columns_sum_to_one():
    g = pair(2)
    for n in (1, 2, 3):
        for i in range(n + 1):
            m = pushforward_matrix(g, n, i)
            assert m.rows == len(nerve(g, n - 1))
            assert m.cols == len(nerve(g, n))
            for j in range(m.cols):
                col = m.column(j)
                assert sum(col) == 1
                assert all(x in (0, 1) for x in col)
    with pytest.raises(ValueError, match="pushforward needs degree >= 1"):
        pushforward_matrix(g, 0, 0)


@pytest.mark.parametrize("g", [one_object_cyclic(4), pair(2), action(2, [1, 0])])
def test_boundary_is_alternating_face_sum(g):
    c = moore_complex(g, 3)
    for n in (1, 2, 3):
        total = IntegerMatrix.zeros(c.dims[n - 1], c.dims[n])
        sign = 1
        for i in range(n + 1):
            term = pushforward_matrix(g, n, i)
            total = total + (term if sign == 1 else -term)
            sign = -sign
        assert total == c.boundaries[n].to_dense()


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("g", [one_object_cyclic(4), pair(2), action(2, [1, 0])])
def test_boundary_mod_q_is_reduced_alternating_face_sum(g, q):
    c = moore_complex(g, 3, modulus=q)
    for n in (1, 2, 3):
        total = IntegerMatrix.zeros(c.dims[n - 1], c.dims[n])
        for i in range(n + 1):
            total = total + pushforward_matrix(g, n, i) * (-1) ** i
        assert total.mod(q) == c.boundaries[n].to_dense()


@pytest.mark.parametrize("g", [one_object_cyclic(4), one_object_cyclic(6), pair(3)])
def test_mod_two_complex_stores_no_zero_residue(g):
    plain = moore_complex(g, 3)
    reduced = moore_complex(g, 3, modulus=2)
    for n in range(4):
        b = reduced.boundaries[n]
        assert isinstance(b, SparseMatrix)
        assert b.entries == plain.boundaries[n].to_dense().mod(2).entries
        assert b.nnz == sum(x != 0 for x in b.entries)


# -- Moore complex -------------------------------------------------------------------


def test_moore_complex_shape_and_labels():
    g = one_object_cyclic(2)
    c = moore_complex(g, 3)
    assert c.dims == [1, 2, 4, 8]
    assert c.modulus == 0
    assert c.basis_labels[1] == [(0,), (1,)]
    assert c.basis_labels[2] == nerve(g, 2).tuples
    with pytest.raises(ValueError, match="max degree must be >= 1"):
        moore_complex(g, 0)
    with pytest.raises(ValueError, match="negative modulus"):
        moore_complex(g, 2, modulus=-1)


def test_moore_complex_budget():
    # pair(3): level sizes 3, 9, 27, 81
    with pytest.raises(ValueError, match="nerve budget exceeded at degree 2"):
        moore_complex(pair(3), 3, budget=20)
    with pytest.raises(ValueError, match="nerve budget exceeded at degree 1"):
        moore_complex(pair(4), 1, budget=10)
    c = moore_complex(pair(3), 3, budget=None)
    assert c.dims == [3, 9, 27, 81]


def test_moore_complex_budget_uses_fresh_counts():
    # caching an earlier small request must not let a later one dodge the cap
    g = pair(3)
    moore_complex(g, 1)
    with pytest.raises(ValueError, match="nerve budget exceeded"):
        moore_complex(g, 3, budget=20)


def test_over_budget_nerve_builds_no_level():
    # pair(3): level sizes 3, 9, 27, 81; the budget is checked on counted
    # sizes, so a refusal caches no level, not even one that fits
    g = pair(3)
    with pytest.raises(ValueError, match="nerve budget exceeded at degree 2"):
        moore_complex(g, 3, budget=20)
    assert g._nerve_cache is None
    moore_complex(g, 1)
    with pytest.raises(ValueError, match="nerve budget exceeded at degree 3"):
        moore_complex(g, 3, budget=50)
    assert len(g._nerve_cache) == 2


def test_budget_stops_counting_at_first_degree_over_it(monkeypatch):
    # pair(2): totals 2, 6, 14, 30, 62, 126 over degrees 0..5 exceed 100 at
    # degree 5; counting stops there whatever n asks for, so a huge n is
    # refused at once
    drawn = []

    def counted(g, n):
        for size in _level_sizes(g, n):
            drawn.append(size)
            yield size

    monkeypatch.setattr(groupoids, "_level_sizes", counted)
    g = pair(2)
    with pytest.raises(ValueError, match="nerve budget exceeded at degree 5"):
        moore_complex(g, 10**5, budget=100)
    assert drawn == [4, 8, 16, 32, 64]
    assert g._nerve_cache is None


def test_moore_complex_modulus_reduces_entries():
    g = one_object_cyclic(4)
    plain = moore_complex(g, 3)
    reduced = moore_complex(g, 3, modulus=3)
    assert reduced.modulus == 3
    for n in range(4):
        assert reduced.boundaries[n] == plain.boundaries[n].mod(3)
        assert all(0 <= x < 3 for x in reduced.boundaries[n].entries)
    # homology mod q agrees whether or not the complex was pre-reduced
    for n in range(3):
        assert homology_mod(reduced, 3, n).group == homology_mod(plain, 3, n).group


# -- frozen homology -----------------------------------------------------------------


def test_unit_groupoid_homology():
    c = moore_complex(units(1), 5)
    assert homology_group(c, 0) == FinAbGroup.free(1)
    for n in range(1, 5):
        assert homology_group(c, n).is_trivial()


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 13])
def test_cyclic_homology_matches_periodic_resolution(m):
    depth = 4 if m <= 8 else 3  # cyclic:13 at depth 4 has 13^4 top cells
    c = moore_complex(one_object_cyclic(m), depth)
    for n in range(depth):
        rank, torsion = oracles.cyclic_homology_int(m, n)
        assert homology_group(c, n) == FinAbGroup.from_cyclic_orders(list(torsion) + [0] * rank)


@pytest.mark.parametrize("m,q", [(2, 2), (2, 4), (3, 3), (4, 2), (6, 4)])
def test_cyclic_homology_mod_matches_oracle(m, q):
    depth = 4 if m < 6 else 3  # keep the m = 6 lattice work small
    c = moore_complex(one_object_cyclic(m), depth)
    for n in range(depth):
        rank, torsion = oracles.cyclic_homology_mod(m, q, n)
        assert rank == 0
        assert homology_mod(c, q, n).group == FinAbGroup.from_cyclic_orders(torsion)


@pytest.mark.parametrize("k", [2, 3])
def test_pair_groupoid_is_contractible(k):
    # the pair groupoid collapses to a point
    c = moore_complex(pair(k), 3)
    assert homology_group(c, 0) == FinAbGroup.free(1)
    assert homology_group(c, 1).is_trivial()
    assert homology_group(c, 2).is_trivial()


def test_free_action_collapses_to_quotient():
    # Z/2 swapping two points acts freely: same homology as a single point
    c = moore_complex(action(2, [1, 0]), 3)
    assert homology_group(c, 0) == FinAbGroup.free(1)
    assert homology_group(c, 1).is_trivial()
    assert homology_group(c, 2).is_trivial()


def test_action_with_stabilizer_matches_isotropy():
    # Z/4 acting through the swap: one orbit with stabilizer Z/2
    c = moore_complex(action(4, [1, 0]), 4)
    for n in range(4):
        rank, torsion = oracles.cyclic_homology_int(2, n)
        assert homology_group(c, n) == FinAbGroup.from_cyclic_orders(list(torsion) + [0] * rank)


def test_h0_counts_orbits():
    for g in (
        units(3),
        pair(3),
        one_object_cyclic(4),
        action(2, [1, 0]),
        action(2, [0, 1]),
        disjoint_union(one_object_cyclic(2), pair(2)),
        disjoint_union(units(2), one_object_cyclic(3)),
    ):
        c = moore_complex(g, 2)
        assert homology_group(c, 0) == FinAbGroup.free(len(orbits(g)))


def test_union_homology_is_direct_sum():
    a, b = one_object_cyclic(2), one_object_cyclic(3)
    cu = moore_complex(disjoint_union(a, b), 3)
    ca, cb = moore_complex(a, 3), moore_complex(b, 3)
    for n in range(3):
        expected = homology_group(ca, n).direct_sum(homology_group(cb, n))
        assert homology_group(cu, n) == expected


# -- orbits, saturation, reduction ---------------------------------------------------


def test_orbits_frozen():
    assert orbits(units(3)) == [(0,), (1,), (2,)]
    assert orbits(pair(2)) == [(0, 3)]
    assert orbits(one_object_cyclic(5)) == [(0,)]
    assert orbits(action(2, [1, 0])) == [(0, 2)]
    assert orbits(action(2, [0, 1])) == [(0,), (2,)]
    g = disjoint_union(one_object_cyclic(2), units(1))
    assert orbits(g) == [(0,), (2,)]


def test_saturation():
    g = pair(2)  # units 0 and 3 joined by arrows 1 and 2
    w = saturation_witness(g, {0})
    assert w in (1, 2)
    assert not is_saturated(g, {0})
    assert is_saturated(g, {0, 3})
    assert is_saturated(g, set())
    assert is_saturated(g, g.units)
    with pytest.raises(ValueError, match="unit subset contains non-unit 1"):
        is_saturated(g, {1})


def test_reduction_extracts_summand():
    g = disjoint_union(one_object_cyclic(3), units(1))
    r = reduction(g, {0})
    assert r.arrows == 3
    assert r.units == (0,)
    assert r.compose[(1, 2)] == 0
    assert r == one_object_cyclic(3)
    other = reduction(g, {3})
    assert other.arrows == 1
    assert other == units(1)


def test_reduction_composes_exactly():
    g = disjoint_union(units(2), one_object_cyclic(2))
    step1 = reduction(g, {0, 1})
    step2 = reduction(step1, {step1.units[0]})
    direct = reduction(g, {0})
    assert step2 == direct


def test_reduction_homology_of_non_saturated_subset():
    # cutting one point out of the pair groupoid leaves a single point
    g = pair(2)
    r = reduction(g, {0})
    assert r.arrows == 1
    c = moore_complex(r, 2)
    assert homology_group(c, 0) == FinAbGroup.free(1)
    with pytest.raises(ValueError, match="unit subset contains non-unit"):
        reduction(g, {0, 1})


# -- serialization -------------------------------------------------------------------


@pytest.mark.parametrize(
    "g",
    [units(2), one_object_cyclic(4), pair(2), action(4, [1, 0]),
     disjoint_union(one_object_cyclic(2), units(1))],
)
def test_json_roundtrip(g):
    data = g.to_json()
    assert sorted(data) == ["arrows", "compose", "inverse", "range", "source", "units"]
    back = FiniteGroupoid.from_json(data)
    assert back == g


def test_save_load_roundtrip(tmp_path):
    g = disjoint_union(pair(2), one_object_cyclic(2))
    path = tmp_path / "g.json"
    g.save(str(path))
    assert FiniteGroupoid.load(str(path)) == g


def test_from_json_errors():
    g = units(1)
    data = g.to_json()
    data["compose"] = [[0, 0]]
    with pytest.raises(ValueError, match=r"composition entries must be \[left, right, result\] triples"):
        FiniteGroupoid.from_json(data)
    data["compose"] = [[0, 0, 0], [0, 0, 0]]
    with pytest.raises(ValueError, match=r"duplicate composition entry for pair \(0, 0\)"):
        FiniteGroupoid.from_json(data)


def test_reduction_roundtrip_drops_labels():
    g = disjoint_union(one_object_cyclic(2), units(1))
    r = reduction(g, {0})
    back = FiniteGroupoid.from_json(r.to_json())
    assert back == r


# -- randomized cross-checks ---------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_random_union_mod_q_vs_enumeration(seed):
    rng = random.Random(900 + seed)
    parts = [one_object_cyclic(rng.randint(1, 3)), units(rng.randint(1, 2))]
    if rng.random() < 0.5:
        parts.append(pair(2))
    g = parts[0]
    for p in parts[1:]:
        g = disjoint_union(g, p)
    q = rng.choice([2, 3, 4])
    c = moore_complex(g, 3, modulus=0)
    for n in range(3):
        if q ** c.dims[n] > 10**6:
            continue
        res = homology_mod(c, q, n)
        powers, order = oracles.enumerate_mod_homology(
            [c.boundaries[n].row(i) for i in range(c.boundaries[n].rows)],
            [c.boundaries[n + 1].row(i) for i in range(c.boundaries[n + 1].rows)],
            c.dims[n],
            q,
        )
        assert res.group.order() == order
        assert sorted(res.group.primary_decomposition()) == powers
