"""Tests for finite groupoids: axioms, presets, nerve, Moore complex, orbits.

Frozen homology values come from closed forms computed independently in
oracles.py (periodic resolutions for one-object cyclic groupoids) and from
hand calculations pinned in comments.  Every Moore boundary is checked against
the tuple-route oracle in oracles.py, whose tuples also carry the simplicial
identities and pushforward properties, checked exhaustively on small nerves.
"""

import itertools
import json
import random
import subprocess
import sys
import time

import pytest

from groupoid_homology import (
    FinAbGroup,
    FiniteGroupoid,
    FreeChainComplex,
    IntegerMatrix,
    action,
    disjoint_union,
    homology_groups,
    homology_mod,
    moore_complex,
    one_object_cyclic,
    orbits,
    pair,
    reduction,
    saturation_witness,
    units,
)

from groupoid_homology import groupoids
from groupoid_homology.abelian import direct_sum
from groupoid_homology.groupoids import _level_sizes, isotropy_groups
from groupoid_homology.uct import isotropy_homology

import oracles
from test_acceptance import corpus
from test_chains import relabelled
from test_cli import child_env, gen_file, run_cli


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


def test_composition_missing_names_the_first_pair():
    # two composable pairs of pair(2) missing, from a table listed in
    # descending order: the witness is the first missing pair with g
    # ascending, then h ascending, not the first in the table's order
    g = pair(2)
    compose = dict(sorted(g.compose.items(), reverse=True))
    del compose[(2, 1)], compose[(1, 3)]
    with pytest.raises(ValueError, match=r"composition missing for composable pair \(1, 3\)"):
        FiniteGroupoid(4, g.units, g.source, g.range_, g.inverse, compose)
    del compose[(1, 2)]  # the same g, a smaller h
    with pytest.raises(ValueError, match=r"composition missing for composable pair \(1, 2\)"):
        FiniteGroupoid(4, g.units, g.source, g.range_, g.inverse, compose)


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


def _first_associativity_failure(k, source, range_, compose):
    """The reference witness: the first (g, h, e), in compose order and ascending e, with (gh)e != g(he)."""
    for (g, h) in compose:
        for e in range(k):
            if source[h] == range_[e]:
                if compose[(compose[(g, h)], e)] != compose[(g, compose[(h, e)])]:
                    return f"associativity violated at arrows ({g}, {h}, {e})"
    return None


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_associativity_witness_matches_the_triple_loop(seed):
    # one composite of two non-units, not mutually inverse, moved to another
    # arrow with the same endpoints: only associativity can fail, and the
    # table check names the same first triple as the loop
    rng = random.Random(seed)
    corrupted = 0
    for name, g in corpus():
        unit_set = set(g.units)
        candidates = [
            ((a, b), x)
            for (a, b), ab in g.compose.items()
            if a not in unit_set and b not in unit_set and g.inverse[a] != b
            for x in range(g.arrows)
            if x != ab and g.source[x] == g.source[b] and g.range_[x] == g.range_[a]
        ]
        if not candidates:
            continue
        pair_, x = rng.choice(candidates)
        compose = dict(g.compose)
        compose[pair_] = x
        expected = _first_associativity_failure(g.arrows, g.source, g.range_, compose)
        assert expected is not None, (name, pair_, x)
        with pytest.raises(ValueError) as err:
            FiniteGroupoid(g.arrows, g.units, g.source, g.range_, g.inverse, compose)
        assert str(err.value) == expected, name
        corrupted += 1
    assert corrupted >= 5


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
#
# The package numbers the nerve without building tuples; the oracle lists the
# composable tuples, sorted, and builds each face by composing arrows.  The
# package's degree-n basis is the oracle's sorted tuples, in that order.


def pushforward(g, n, i) -> IntegerMatrix:
    """The i-th face map on the oracle's tuples: entry (y, x) is 1 exactly
    when face i sends tuple x to tuple y."""
    below = {t: y for y, t in enumerate(oracles.nerve_tuples(g, n - 1))}
    here = oracles.nerve_tuples(g, n)
    rows = [[0] * len(here) for _ in below]
    for x, t in enumerate(here):
        rows[below[oracles.tuple_face(g, t, i)]][x] = 1
    return IntegerMatrix.from_rows(rows, cols=len(here))


def column_entries(b: IntegerMatrix, x: int) -> dict[int, int]:
    return {y: v for y, v in enumerate(b.column(x)) if v}


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
    assert moore_complex(g, 3).dims == expected_dims
    assert [len(oracles.nerve_tuples(g, n)) for n in range(4)] == expected_dims


def test_nerve_level_contents():
    g = one_object_cyclic(2)
    assert oracles.nerve_tuples(g, 0) == [(0,)]
    assert oracles.nerve_tuples(g, 1) == [(0,), (1,)]
    assert oracles.nerve_tuples(g, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # column 3 of ∂_2 is the tuple (1, 1): faces (1,), (0,), (1,) with signs +, -, +
    c = moore_complex(g, 2)
    assert column_entries(c.boundaries[2], 3) == {1: 2, 0: -1}
    g = pair(2)  # arrow 2a + b runs from unit 3b to unit 3a
    assert oracles.nerve_tuples(g, 2)[:4] == [(0, 0), (0, 1), (1, 2), (1, 3)]
    assert moore_complex(g, 2).dims == [2, 4, 8]


def test_face_values_degree_one():
    g = disjoint_union(one_object_cyclic(2), units(1))
    # arrow 1 is the flip at unit 0; arrow 2 the extra unit
    assert oracles.tuple_face(g, (1,), 0) == (0,)
    assert oracles.tuple_face(g, (1,), 1) == (0,)
    assert oracles.tuple_face(g, (2,), 0) == (2,)
    # ∂_1 = range - source: zero on loops; pair(2)'s arrow 1 runs from unit 3 to 0
    assert moore_complex(g, 1).boundaries[1].is_zero()
    assert column_entries(moore_complex(pair(2), 1).boundaries[1], 1) == {1: 1, 0: -1}


def test_face_composes_interior():
    g = one_object_cyclic(5)
    t = (2, 4, 3)
    assert oracles.tuple_face(g, t, 0) == (4, 3)
    assert oracles.tuple_face(g, t, 1) == ((2 + 4) % 5, 3)
    assert oracles.tuple_face(g, t, 2) == (2, (4 + 3) % 5)
    assert oracles.tuple_face(g, t, 3) == (2, 4)
    # the same faces through the numbering: (a, b, c) is 25a + 5b + c, (a, b) is 5a + b
    c = moore_complex(g, 3)
    assert column_entries(c.boundaries[3], 73) == {23: 1, 8: -1, 12: 1, 14: -1}


@pytest.mark.parametrize(
    "g",
    [one_object_cyclic(3), pair(2), action(2, [1, 0]), disjoint_union(units(1), one_object_cyclic(2))],
)
def test_simplicial_identities(g):
    # d_i d_j = d_{j-1} d_i for i < j, exhaustively in degree 3
    face = oracles.tuple_face
    for t in oracles.nerve_tuples(g, 3):
        for j in range(4):
            for i in range(j):
                assert face(g, face(g, t, j), i) == face(g, face(g, t, i), j - 1), (t, i, j)


def test_pushforward_columns_sum_to_one():
    # every face of a composable tuple is a composable tuple one degree down
    g = pair(2)
    for n in (1, 2, 3):
        for i in range(n + 1):
            m = pushforward(g, n, i)
            assert (m.rows, m.cols) == tuple(moore_complex(g, n).dims[n - 1 :])
            for j in range(m.cols):
                col = m.column(j)
                assert sum(col) == 1
                assert all(x in (0, 1) for x in col)


@pytest.mark.parametrize("g", [one_object_cyclic(4), pair(2), action(2, [1, 0])])
def test_boundary_is_alternating_face_sum(g):
    c = moore_complex(g, 3)
    for n in (1, 2, 3):
        total = [[0] * c.dims[n] for _ in range(c.dims[n - 1])]
        for i in range(n + 1):
            term = pushforward(g, n, i)
            for y, row in enumerate(total):
                for x, v in enumerate(term.row(y)):
                    row[x] += (-1) ** i * v
        assert IntegerMatrix.from_rows(total, cols=c.dims[n]) == c.boundaries[n]


@pytest.mark.parametrize("name_and_groupoid", corpus(), ids=[n for n, _ in corpus()])
def test_moore_boundaries_match_tuple_oracle(name_and_groupoid):
    # the face tables against plain tuples, on arrows renumbered two ways
    name, g = name_and_groupoid
    for seed in (1, 2):
        h = relabelled(g, seed)
        c = moore_complex(h, 4, budget=None)
        for n in range(1, 5):
            stored = {(y, x): v for y, r in enumerate(c.boundaries[n]._dicts) for x, v in r.items()}
            assert stored == oracles.moore_boundary(h, n), (name, seed, n)


@pytest.mark.parametrize("name_and_groupoid", corpus(), ids=[n for n, _ in corpus()])
def test_checked_face_tables_agree_with_sparse_product(name_and_groupoid, monkeypatch):
    # moore_complex proves ∂∘∂ = 0 from the face tables, in blocks of _BLOCK
    # columns; the public constructor's sparse product must accept what it
    # builds, and blocks of 3 (the top level of most of the corpus over many
    # blocks, the last one partial) must give the boundaries of one block
    name, g = name_and_groupoid
    for seed in (1, 2):
        h = relabelled(g, seed)
        monkeypatch.setattr(groupoids, "_BLOCK", 3)
        c = moore_complex(h, 4, budget=None)
        FreeChainComplex(c.dims, c.boundaries)
        monkeypatch.setattr(groupoids, "_BLOCK", max(c.dims))
        assert moore_complex(h, 4, budget=None).boundaries == c.boundaries, (name, seed)


# -- Moore complex -------------------------------------------------------------------


def test_moore_complex_shape_and_labels():
    # the basis is numbered, not labelled: tuples are the oracle's to list
    g = one_object_cyclic(2)
    c = moore_complex(g, 3)
    assert c.dims == [1, 2, 4, 8]
    assert FreeChainComplex.__slots__ == ("dims", "boundaries")
    with pytest.raises(ValueError, match="max degree must be >= 1"):
        moore_complex(g, 0)


def test_moore_complex_budget():
    # pair(3): level sizes 3, 9, 27, 81
    with pytest.raises(ValueError, match="nerve budget exceeded at degree 2"):
        moore_complex(pair(3), 3, budget=20)
    with pytest.raises(ValueError, match="nerve budget exceeded at degree 1"):
        moore_complex(pair(4), 1, budget=10)
    c = moore_complex(pair(3), 3, budget=None)
    assert c.dims == [3, 9, 27, 81]


def test_moore_complex_budget_uses_fresh_counts():
    # an earlier small request must not let a later one dodge the cap
    g = pair(3)
    moore_complex(g, 1)
    with pytest.raises(ValueError, match="nerve budget exceeded"):
        moore_complex(g, 3, budget=20)


def test_arrows_into_reads_the_table_validate_builds():
    g = disjoint_union(pair(3), one_object_cyclic(4))
    for u in g.units:
        assert g.arrows_into(u) == [a for a in range(g.arrows) if g.range_[a] == u]
        assert g.arrows_into(u) is g._by_range[u]


def _spy_arrows_into(monkeypatch) -> list[int]:
    """Record the units that `arrows_into` is asked about: the nerve's first face table reads it."""
    read, real = [], FiniteGroupoid.arrows_into
    monkeypatch.setattr(FiniteGroupoid, "arrows_into", lambda g, u: read.append(u) or real(g, u))
    return read


def test_over_budget_nerve_builds_no_level(monkeypatch):
    # pair(3): level sizes 3, 9, 27, 81; the budget is checked on counted
    # sizes, so a refusal builds no table and no boundary, not even one that fits
    built = []

    def counted(rows, cols, columns):
        built.append(cols)
        return original(rows, cols, columns)

    original = groupoids._alternating_sum
    monkeypatch.setattr(groupoids, "_alternating_sum", counted)
    read = _spy_arrows_into(monkeypatch)
    g = pair(3)
    with pytest.raises(ValueError, match="nerve budget exceeded at degree 2"):
        moore_complex(g, 3, budget=20)
    assert built == [] and read == []
    moore_complex(g, 1)
    assert built == [9]
    with pytest.raises(ValueError, match="nerve budget exceeded at degree 3"):
        moore_complex(g, 3, budget=50)
    assert built == [9]


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
    read = _spy_arrows_into(monkeypatch)
    g = pair(2)
    with pytest.raises(ValueError, match="nerve budget exceeded at degree 5"):
        moore_complex(g, 10**5, budget=100)
    assert drawn == [4, 8, 16, 32, 64]
    assert read == []


# Faults in the face tables, injected into a child under `python -O`.  Each
# child first builds the faulty complex with the two checks of `moore_complex`
# stubbed out and prints whether its boundaries differ from the clean ones, so
# a fault that changes nothing cannot pass; then it builds it with the checks.
S3 = (
    "from itertools import permutations\n"
    "perms = list(permutations(range(3)))\n"
    "idx = {p: i for i, p in enumerate(perms)}\n"
    "compose = {(i, j): idx[tuple(perms[i][k] for k in perms[j])]"
    " for i in range(6) for j in range(6)}\n"
    "inverse = [idx[tuple(sorted(range(3), key=p.__getitem__))] for p in perms]\n"
    "g = FiniteGroupoid(6, [0], [0] * 6, [0] * 6, inverse, compose)\n"
)
FACE_FAULTS = [
    pytest.param(
        S3,
        # one entry of the last-inner-face table composes a ∘ last p, not last p ∘ a
        "i, j = next((i, j) for (i, j), v in compose.items() if v != compose[(j, i)])\n"
        "g.compose[(i, j)] = compose[(j, i)]\n",
        "ValueError: simplicial identity d_1 d_2 = d_1 d_1 fails at degree 3, basis element ",
        id="swapped-composite",
    ),
    pytest.param(
        "g = pair(2)\n",
        # one face of one column of ∂_2 enters with the wrong sign
        "original = groupoids._alternating_sum\n"
        "def flipped(rows, cols, columns):\n"
        "    b = original(rows, cols, columns)\n"
        "    if cols == 8:\n"
        "        r = b._dicts[1]\n"
        "        r[next(iter(r))] *= -1\n"
        "    return b\n"
        "groupoids._alternating_sum = flipped\n",
        "ValueError: boundary 2 column 2 sums to -1, expected 1\n",
        id="flipped-sign",
    ),
    pytest.param(
        "g = pair(2)\ngroupoids._BLOCK = 4\n",
        # face 1 of basis element 9 of the top level (its third block of 4) is
        # another 2-simplex; the top level's faces are generated, not stored
        "original = groupoids._checked_columns\n"
        "def moved(below, faces):\n"
        "    if len(faces) == 4:\n"
        "        if isinstance(faces[1], list):\n"
        "            raise SystemExit('top faces are stored')\n"
        "        faces[1] = (f if x != 9 else (f + 1) % 8 for x, f in enumerate(faces[1]))\n"
        "    return original(below, faces)\n"
        "groupoids._checked_columns = moved\n",
        " fails at degree 3, basis element 9\n",
        id="top-level-block",
    ),
]


@pytest.mark.parametrize("setup,fault,message", FACE_FAULTS)
def test_face_table_fault_raises_under_optimize_flag(setup, fault, message):
    program = (
        "import sys\n"
        "from groupoid_homology import FiniteGroupoid, groupoids, moore_complex, pair\n"
        "if not sys.flags.optimize:\n"
        "    raise SystemExit('child is not optimized')\n"
        + setup
        + "clean = moore_complex(g, 3)\n"
        + fault
        + "checks = groupoids._check_identities, groupoids._check_column_sums\n"
        "groupoids._check_identities = groupoids._check_column_sums = lambda *args: None\n"
        "print('changed' if moore_complex(g, 3).boundaries != clean.boundaries else 'same')\n"
        "groupoids._check_identities, groupoids._check_column_sums = checks\n"
        "moore_complex(g, 3)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", program],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )
    assert proc.stdout == "changed\n", proc.stderr
    assert proc.returncode != 0
    assert message in proc.stderr, proc.stderr


# -- frozen homology -----------------------------------------------------------------


def test_unit_groupoid_homology():
    c = moore_complex(units(1), 5)
    assert homology_groups(c, 0, 0)[0] == FinAbGroup.free(1)
    for n in range(1, 5):
        assert homology_groups(c, 0, n)[n].is_trivial()


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 13])
def test_cyclic_homology_matches_periodic_resolution(m):
    depth = 4 if m <= 8 else 3  # cyclic:13 at depth 4 has 13^4 top cells
    c = moore_complex(one_object_cyclic(m), depth)
    for n in range(depth):
        rank, torsion = oracles.cyclic_homology_int(m, n)
        assert homology_groups(c, 0, n)[n] == FinAbGroup.from_cyclic_orders(list(torsion) + [0] * rank)


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
    assert homology_groups(c, 0, 0)[0] == FinAbGroup.free(1)
    assert homology_groups(c, 0, 1)[1].is_trivial()
    assert homology_groups(c, 0, 2)[2].is_trivial()


def test_free_action_collapses_to_quotient():
    # Z/2 swapping two points acts freely: same homology as a single point
    c = moore_complex(action(2, [1, 0]), 3)
    assert homology_groups(c, 0, 0)[0] == FinAbGroup.free(1)
    assert homology_groups(c, 0, 1)[1].is_trivial()
    assert homology_groups(c, 0, 2)[2].is_trivial()


def test_action_with_stabilizer_matches_isotropy():
    # Z/4 acting through the swap: one orbit with stabilizer Z/2
    c = moore_complex(action(4, [1, 0]), 4)
    for n in range(4):
        rank, torsion = oracles.cyclic_homology_int(2, n)
        assert homology_groups(c, 0, n)[n] == FinAbGroup.from_cyclic_orders(list(torsion) + [0] * rank)


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
        assert homology_groups(c, 0, 0)[0] == FinAbGroup.free(len(orbits(g)))


def test_union_homology_is_direct_sum():
    a, b = one_object_cyclic(2), one_object_cyclic(3)
    cu = moore_complex(disjoint_union(a, b), 3)
    ca, cb = moore_complex(a, 3), moore_complex(b, 3)
    for n in range(3):
        expected = homology_groups(ca, 0, n)[n].direct_sum(homology_groups(cb, 0, n)[n])
        assert homology_groups(cu, 0, n)[n] == expected


@pytest.mark.parametrize("copies", [20, 40])
def test_homology_of_many_one_unit_orbits(tmp_path, copies):
    # each orbit sends one non-unit row to one Smith form; the row dicts
    # share no column, so 200 orbits stay well inside a second
    g = one_object_cyclic(2)
    for i in range(1, 5 * copies):
        g = disjoint_union(g, one_object_cyclic(2 + i % 5))
    path = str(tmp_path / "orbits.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(relabelled(g, 1).to_json(), fh)
    start = time.perf_counter()
    code, out, _ = run_cli(["homology", "-i", path, "-N", "2"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    torsion = ["Z/60"] * copies + ["Z/6"] * copies + ["Z/2"] * copies
    assert out.splitlines()[1:] == [f"  H_0 = Z^{5 * copies}", "  H_1 = " + " ⊕ ".join(torsion)]


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
    assert saturation_witness(g, {0}) is not None
    assert saturation_witness(g, {0, 3}) is None
    assert saturation_witness(g, set()) is None
    assert saturation_witness(g, g.units) is None
    with pytest.raises(ValueError, match="unit subset contains non-unit 1"):
        saturation_witness(g, {1})


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
    assert homology_groups(c, 0, 0)[0] == FinAbGroup.free(1)
    with pytest.raises(ValueError, match="unit subset contains non-unit"):
        reduction(g, {0, 1})


# -- isotropy groups: iso types per orbit (Morita reduction) ------------------------

# coefficient groups as the moduli of their cyclic summands, 0 for Z
COEFFICIENT_MODULI = [(0,), (2,), (4,), (6,), (0, 4)]


def _coefficients(moduli) -> FinAbGroup:
    return direct_sum([FinAbGroup.cyclic(q) if q else FinAbGroup.free(1) for q in moduli])


def _oracle_homology(g, top: int, q: int) -> list:
    """H_0..H_top of g's nerve from the oracles' tuple boundaries alone: invariant
    factors by elimination for q = 0, enumeration over Z/q for q >= 2, and None in
    a degree with more than 10**5 chains over Z/q."""
    dims = [len(oracles.nerve_tuples(g, n)) for n in range(top + 2)]
    bounds = [[]]
    for n in range(1, top + 2):
        rows = [[0] * dims[n] for _ in range(dims[n - 1])]
        for (r, x), v in oracles.moore_boundary(g, n).items():
            rows[r][x] = v
        bounds.append(rows)
    if q:
        return [None if q ** dims[n] > 10**5 else FinAbGroup.from_cyclic_orders(
                    oracles.enumerate_mod_homology(bounds[n], bounds[n + 1], dims[n], q)[0])
                for n in range(top + 1)]
    factors = [[]] + [oracles.smith_diag_by_elimination(b) for b in bounds[1:]]
    return [FinAbGroup.from_cyclic_orders([d for d in factors[n + 1] if d > 1]
                                          + [0] * (dims[n] - len(factors[n]) - len(factors[n + 1])))
            for n in range(top + 1)]


@pytest.mark.parametrize("name_and_groupoid", corpus(), ids=[n for n, _ in corpus()])
def test_isotropy_route_matches_full_complex_and_oracles(name_and_groupoid):
    # on relabelled inputs the per-orbit iso types equal those of the full
    # Moore complex group for group, and the oracles' wherever they enumerate
    name, g = name_and_groupoid
    oracle = {q: _oracle_homology(g, 2, q) for q in (0, 2, 4, 6)}
    for seed in (1, 2):
        h = relabelled(g, seed)
        full = {q: homology_groups(moore_complex(h, 3), q) for q in (0, 2, 4, 6)}
        for moduli in COEFFICIENT_MODULI:
            [groups] = isotropy_homology(h, 3, None, _coefficients(moduli))
            for n in range(3):
                assert groups[n] == direct_sum([full[q][n] for q in moduli]), (name, seed, moduli, n)
                parts = [oracle[q][n] for q in moduli]
                if None not in parts:
                    assert groups[n] == direct_sum(parts), (name, seed, moduli, n)


def test_isotropy_groups_of_a_three_orbit_union():
    # cyclic:6 ⊔ pair:3 ⊔ action:6 through three swaps: orbits with isotropy
    # Z/6, trivial (three units), then three of two units each with stabilizer Z/3
    g = disjoint_union(disjoint_union(one_object_cyclic(6), pair(3)), action(6, [1, 0, 3, 2, 5, 4]))
    groups = isotropy_groups(g)
    assert [(h.arrows, len(h.units)) for h in groups] == [(6, 1), (1, 1), (3, 1), (3, 1), (3, 1)]
    assert groups[0] == one_object_cyclic(6)
    for seed in (0, 1, 2):
        h = relabelled(g, seed) if seed else g
        full = {q: homology_groups(moore_complex(h, 4), q) for q in (0, 2, 4, 6)}
        for moduli in COEFFICIENT_MODULI:
            [got] = isotropy_homology(h, 4, None, _coefficients(moduli))
            for n in range(4):
                assert got[n] == direct_sum([full[q][n] for q in moduli]), (seed, moduli, n)
                orders = []
                for m in (6, 1, 3, 3, 3):
                    for q in moduli:
                        rank, torsion = (oracles.cyclic_homology_mod(m, q, n) if q
                                         else oracles.cyclic_homology_int(m, n))
                        orders += list(torsion) + [0] * rank
                assert got[n] == FinAbGroup.from_cyclic_orders(orders), (seed, moduli, n)


def test_one_unit_orbits_take_no_reduction_and_one_validation(tmp_path, monkeypatch):
    # a one-unit groupoid and a union of one-unit orbits already are the disjoint
    # union of their isotropy groups: `homology` and `uct` validate each once, on load
    c3, c2 = gen_file(tmp_path, "cyclic:3", "c3.json"), gen_file(tmp_path, "cyclic:2", "c2.json")
    inputs = [gen_file(tmp_path, "cyclic:4", "c4.json"), gen_file(tmp_path, f"union:{c3},{c2}", "u.json")]
    for path in inputs:
        g = FiniteGroupoid.load(path)
        assert isotropy_groups(g)[0] is g and len(isotropy_groups(g)) == 1
    validated, reduced = [], []
    real = FiniteGroupoid.validate

    def counted(self):
        validated.append(self)
        return real(self)

    monkeypatch.setattr(FiniteGroupoid, "validate", counted)
    monkeypatch.setattr(groupoids, "reduction", lambda g, members: reduced.append(members))
    for path in inputs:
        for command in ("homology", "uct"):
            validated.clear()
            code, out, err = run_cli([command, "-i", path, "-N", "3", "--coeff", "z+z/4"])
            assert (code, err) == (0, ""), (path, command)
            assert len(validated) == 1, (path, command)
    assert reduced == []


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(g.to_json(), fh)
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
    # a unit listed twice would count one object twice in every degree
    data = one_object_cyclic(3).to_json()
    data["units"] = [0, 0]
    with pytest.raises(ValueError, match="unit 0 listed twice"):
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
    c = moore_complex(g, 3)
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
