"""Tests for shift-of-finite-type homology: closed forms, the matrix route,
finite-coefficient tables, classification from probe data, and collisions.

The matrix route (cokernel/kernel of I - A^T) is cross-checked against the
determinant and Smith-form oracles; the gcd closed forms are cross-checked
against the splitting assembly from integral homology.
"""

import math
import random

import pytest

from groupoid_homology import (
    FamilySpec,
    FinAbGroup,
    GcdTable,
    IntegerMatrix,
    classify,
    collision_search,
    family_h1_oracle,
    family_integral,
    family_mod,
    full_shift_homology,
    full_shift_matrix,
    point_homology,
    probe_schedule,
    sft_matrix_homology,
    uct_assemble,
)

import oracles


# -- FamilySpec ----------------------------------------------------------------------


def test_family_spec_basics():
    spec = FamilySpec(5, 3)
    assert spec.n == 5 and spec.m == 3
    assert spec.unordered == (3, 5)
    assert FamilySpec(2, 2) < FamilySpec(2, 3) < FamilySpec(3, 2)
    with pytest.raises(ValueError, match=r"family parameters must be at least 2, got \(1, 4\)"):
        FamilySpec(1, 4)
    with pytest.raises(ValueError, match="family parameters must be at least 2"):
        FamilySpec(3, 0)


def test_family_spec_frozen():
    spec = FamilySpec(2, 3)
    with pytest.raises(Exception):
        spec.n = 4


# -- closed forms --------------------------------------------------------------------


def test_full_shift_homology_frozen():
    assert full_shift_homology(2) == [FinAbGroup.trivial()] * 5
    hs = full_shift_homology(5)
    assert hs[0] == FinAbGroup.cyclic(4)
    assert all(h.is_trivial() for h in hs[1:])
    assert len(full_shift_homology(3, max_degree=2)) == 3
    with pytest.raises(ValueError, match="full shift needs at least 2 letters, got 1"):
        full_shift_homology(1)


def test_point_homology_frozen():
    hs = point_homology(3)
    assert hs[0] == FinAbGroup.free(1)
    assert all(h.is_trivial() for h in hs[1:])
    assert len(hs) == 4


def test_full_shift_matrix():
    m = full_shift_matrix(3)
    assert m.rows == m.cols == 3
    assert all(x == 1 for x in m.entries)


# -- the matrix route ------------------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 13))
def test_full_shift_agrees_with_matrix_route(n):
    h0, h1 = sft_matrix_homology(full_shift_matrix(n))
    closed = full_shift_homology(n, max_degree=1)
    assert h0 == closed[0] == FinAbGroup.cyclic(n - 1)
    assert h1 == closed[1]
    assert h1.is_trivial()


def test_golden_mean_shift_frozen():
    # det(I - A^T) = -1: both groups vanish
    h0, h1 = sft_matrix_homology([[1, 1], [1, 0]])
    assert h0.is_trivial()
    assert h1.is_trivial()


def test_matrix_route_frozen_cases():
    # identity matrix: I - A^T = 0, everything survives
    h0, h1 = sft_matrix_homology([[1, 0], [0, 1]])
    assert h0 == FinAbGroup.free(2)
    assert h1 == FinAbGroup.free(2)
    # single state, three loops: same as the full shift on three letters
    h0, h1 = sft_matrix_homology([[3]])
    assert h0 == FinAbGroup.cyclic(2)
    assert h1.is_trivial()
    # block-diagonal pair of full shifts: groups add
    h0, h1 = sft_matrix_homology([[2, 0], [0, 4]])
    assert h0 == FinAbGroup(0, (3,))  # Z/1 + Z/3
    assert h1.is_trivial()


@pytest.mark.parametrize("seed", range(20))
def test_matrix_route_vs_smith_oracle(seed):
    rng = random.Random(seed)
    k = rng.randint(1, 4)
    while True:
        rows = [[rng.randint(0, 3) for _ in range(k)] for _ in range(k)]
        if all(any(r) for r in rows) and all(any(row[j] for row in rows) for j in range(k)):
            break
    h0, h1 = sft_matrix_homology(rows)
    presentation = [
        [int(i == j) - rows[j][i] for j in range(k)] for i in range(k)
    ]  # I - A^T, row-major
    det = oracles.det_bareiss([row[:] for row in presentation])
    if det != 0:
        assert h1.is_trivial()
        assert h0.order() == abs(det)
        diag = oracles.smith_diag_by_minors(presentation)
        assert h0 == FinAbGroup.from_cyclic_orders(diag)
    else:
        assert h1.rank >= 1
        assert h0.rank == h1.rank  # coker and ker share the rank defect


def test_matrix_route_errors():
    with pytest.raises(ValueError, match="degenerate matrix: 2x3 is not square"):
        sft_matrix_homology([[1, 0, 1], [0, 1, 1]])
    with pytest.raises(ValueError, match=r"degenerate matrix: negative entry at \(1, 0\)"):
        sft_matrix_homology([[1, 1], [-1, 1]])
    with pytest.raises(ValueError, match="degenerate matrix: zero row 1"):
        sft_matrix_homology([[1, 1], [0, 0]])
    with pytest.raises(ValueError, match="degenerate matrix: zero column 0"):
        sft_matrix_homology([[0, 1], [0, 1]])


# -- the two-shift family --------------------------------------------------------------


def test_family_integral_frozen():
    hs = family_integral(FamilySpec(4, 6))
    assert hs[0] == FinAbGroup(1, (15,))  # Z/3 + Z + Z/5
    assert all(h.is_trivial() for h in hs[1:])
    hs = family_integral(FamilySpec(2, 2))
    assert hs[0] == FinAbGroup.free(1)
    hs = family_integral(FamilySpec(3, 5), max_degree=2)
    assert hs[0] == FinAbGroup(1, (2, 4))
    assert len(hs) == 3


def test_family_mod_frozen():
    row = family_mod(FamilySpec(4, 6), 6)
    assert row.q == 6
    assert row.h0 == FinAbGroup(0, (3, 6))
    assert row.h0.render() == "Z/6 ⊕ Z/3"
    assert row.h1 == FinAbGroup.cyclic(3)
    assert row.h1.render() == "Z/3"
    row = family_mod(FamilySpec(2, 2), 5)
    assert row.h0 == FinAbGroup.cyclic(5)
    assert row.h1.is_trivial()
    with pytest.raises(ValueError, match="coefficient modulus must be at least 1, got 0"):
        family_mod(FamilySpec(2, 2), 0)


def test_family_mod_matches_uct_assembly():
    # the gcd table must agree with assembling tensor and Tor from H_* over Z
    for n in range(2, 10):
        for m in range(n, 10):
            spec = FamilySpec(n, m)
            integral = family_integral(spec, max_degree=1)
            for q in list(range(1, 13)) + [30, 60]:
                row = family_mod(spec, q)
                coeff = FinAbGroup.cyclic(q)
                _, _, h0 = uct_assemble(integral[0], FinAbGroup.trivial(), coeff)
                _, _, h1 = uct_assemble(integral[1], integral[0], coeff)
                assert row.h0 == h0, (spec, q)
                assert row.h1 == h1, (spec, q)


def test_family_mod_exponent_divides_q():
    for q in range(1, 20):
        row = family_mod(FamilySpec(7, 9), q)
        for group in (row.h0, row.h1):
            assert group.rank == 0
            assert all(q % d == 0 for d in group.torsion)


def test_gcd_table_build_and_json():
    spec = FamilySpec(4, 6)
    table = GcdTable.build(spec, 6)
    assert table.spec == spec
    assert [row.q for row in table.rows] == [1, 2, 3, 4, 5, 6]
    data = table.to_json()
    assert data[5] == {
        "q": 6,
        "h0": {"rank": 0, "torsion": [3, 6]},
        "h1": {"rank": 0, "torsion": [3]},
    }
    signature = table.h1_signature()
    assert len(signature) == 6
    assert signature[5] == (0, (3,))
    # an empty table would make every pair of family members collide
    for qmax in (0, -2):
        with pytest.raises(ValueError, match=f"table bound qmax must be at least 1, got {qmax}"):
            GcdTable.build(spec, qmax)
        with pytest.raises(ValueError, match=f"table bound qmax must be at least 1, got {qmax}"):
            collision_search(4, qmax)


def test_family_h1_oracle_matches_rows():
    spec = FamilySpec(5, 8)
    oracle = family_h1_oracle(spec)
    for q in (1, 2, 4, 7, 12):
        assert oracle(q) == family_mod(spec, q).h1


# -- classification --------------------------------------------------------------------


def test_probe_schedule_frozen():
    assert probe_schedule(9) == [2, 3, 4, 5, 7, 8, 9, 25, 27, 49, 125, 343]
    assert probe_schedule(3) == [2]
    assert probe_schedule(2) == []


def test_classify_frozen_ambiguous_pair():
    candidates = classify(family_h1_oracle(FamilySpec(3, 4)), 9)
    assert candidates == [(2, 7), (3, 4)]
    # the same data seen from the other family member
    assert classify(family_h1_oracle(FamilySpec(2, 7)), 9) == [(2, 7), (3, 4)]


def test_classify_unique_for_prime_power_free_parameters():
    # F(2, 2) has trivial H_1 for every q; only (2, 2) matches below 9
    assert classify(family_h1_oracle(FamilySpec(2, 2)), 9) == [(2, 2)]


@pytest.mark.parametrize("n,m", [(n, m) for n in range(2, 10) for m in range(n, 10)])
def test_classify_soundness(n, m):
    # the true parameters always appear among the candidates
    candidates = classify(family_h1_oracle(FamilySpec(n, m)), 9)
    assert (n, m) in candidates
    # all candidates reproduce the full probe table
    target = {q: family_mod(FamilySpec(n, m), q).h1 for q in probe_schedule(9)}
    for cn, cm in candidates:
        assert all(family_mod(FamilySpec(cn, cm), q).h1 == grp for q, grp in target.items())


def test_classify_errors_and_trivial_bound():
    with pytest.raises(ValueError, match="search bound must be at least 2, got 1"):
        classify(family_h1_oracle(FamilySpec(2, 2)), 1)
    with pytest.raises(ValueError, match="no candidate <= 3 matches the oracle data"):
        classify(lambda q: FinAbGroup.cyclic(q + 1), 3)
    # bound 2 has no probes at all: the single candidate survives vacuously
    assert classify(family_h1_oracle(FamilySpec(2, 2)), 2) == [(2, 2)]


# -- collisions -----------------------------------------------------------------------


def test_collision_search_frozen():
    collisions = collision_search(9, 2520)
    assert collisions == [(FamilySpec(2, 7), FamilySpec(3, 4))]


def test_collision_pair_is_indistinguishable_for_all_q():
    # gcd(1,q) x gcd(6,q) and gcd(2,q) x gcd(3,q) are isomorphic for every q
    a, b = FamilySpec(2, 7), FamilySpec(3, 4)
    for q in range(1, 200):
        assert family_mod(a, q).h1 == family_mod(b, q).h1
        assert family_mod(a, q).h0 == family_mod(b, q).h0
    # even the integral homology coincides; only the parameters differ
    assert family_integral(a) == family_integral(b)
    assert a.unordered != b.unordered


def test_collision_search_output_is_canonical():
    collisions = collision_search(9, 12)
    assert collisions == sorted(collisions)
    for a, b in collisions:
        assert a < b
        assert a.n <= a.m and b.n <= b.m
    assert len(set(collisions)) == len(collisions)


def test_collision_search_monotone_in_qmax():
    # a longer table can only split signature classes, never merge them
    fine = set(collision_search(9, 2520))
    coarse = set(collision_search(9, 6))
    assert fine <= coarse


def test_collision_members_share_signatures():
    for a, b in collision_search(8, 40):
        assert GcdTable.build(a, 40).h1_signature() == GcdTable.build(b, 40).h1_signature()
