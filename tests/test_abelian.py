"""Finitely generated abelian groups, presentations, homs, middle homology."""

import doctest
import itertools
import math
import random
import time

import pytest

import groupoid_homology.abelian
import groupoid_homology.matrix
from groupoid_homology.abelian import (
    FinAbGroup,
    GroupHom,
    PresentedGroup,
    direct_sum,
    group_of,
    middle_homology,
    tensor,
    tor1,
)
from groupoid_homology.matrix import IntegerMatrix

import oracles
from test_matrix import raw_rows


def test_doctests_pass():
    for module in (groupoid_homology.abelian, groupoid_homology.matrix):
        failures, tried = doctest.testmod(module)
        assert failures == 0
        assert tried > 0


# -- normal form ---------------------------------------------------------------


@pytest.mark.parametrize(
    "orders,expected",
    [
        ([2, 3], (6,)),
        ([4, 6], (2, 12)),
        ([2, 2, 3], (2, 6)),
        ([8, 4, 2], (2, 4, 8)),
        ([1, 1, 5], (5,)),
        ([6, 10, 15], (30, 30)),
        ([], ()),
    ],
)
def test_invariant_factor_normalization(orders, expected):
    g = FinAbGroup.from_cyclic_orders(orders)
    assert g.rank == 0
    assert g.torsion == expected
    if all(d >= 2 for d in orders):
        # the strict constructor accepts exactly the coefficients >= 2
        assert FinAbGroup(0, orders).torsion == expected
    # the chain divides and the order is preserved
    for a, b in zip(g.torsion, g.torsion[1:]):
        assert b % a == 0
    prod = 1
    for d in orders:
        prod *= d
    assert g.order() == prod


def test_from_cyclic_orders_zero_means_free():
    g = FinAbGroup.from_cyclic_orders([0, 6, 0, 1, 4])
    assert g.rank == 2
    assert g.torsion == (2, 12)
    assert FinAbGroup.cyclic(0) == FinAbGroup.free(1)
    assert FinAbGroup.cyclic(1).is_trivial()


@pytest.mark.parametrize("seed", range(20))
def test_normalization_is_canonical(seed):
    # any grouping of the same cyclic summands normalizes identically
    rng = random.Random(seed)
    orders = [rng.randint(1, 12) for _ in range(rng.randint(0, 6))]
    shuffled = orders[:]
    rng.shuffle(shuffled)
    a = FinAbGroup.from_cyclic_orders(orders)
    b = FinAbGroup.from_cyclic_orders(shuffled)
    assert a == b
    assert hash(a) == hash(b)
    # CRT split: replacing d by its prime-power parts changes nothing
    split = []
    for d in orders:
        if d == 1:
            continue
        dd = d
        p = 2
        while p * p <= dd:
            if dd % p == 0:
                power = 1
                while dd % p == 0:
                    power *= p
                    dd //= p
                split.append(power)
            p += 1
        if dd > 1:
            split.append(dd)
    assert FinAbGroup.from_cyclic_orders(split) == a


BIG_PRIMES = (1000000000039, 1000000000061, 1000000000063)  # primes above 10^12


def test_normalization_matches_smith_of_the_diagonal():
    # the gcd/lcm chain against the oracle's elimination on diag(orders); the
    # big primes and their products are out of reach of trial division
    rng = random.Random(27)
    big = [*BIG_PRIMES, BIG_PRIMES[0] * BIG_PRIMES[1], BIG_PRIMES[2] * 6, BIG_PRIMES[1] ** 2]
    for _ in range(2000):
        orders = [rng.choice(big) if rng.random() < 0.15 else rng.randint(2, 60)
                  for _ in range(rng.randint(0, 7))]
        orders += rng.sample(orders, rng.randint(0, len(orders)))  # repeats
        diagonal = [[d if i == j else 0 for j in range(len(orders))] for i, d in enumerate(orders)]
        expected = tuple(d for d in oracles.smith_diag_by_elimination(diagonal) if d != 1)
        assert groupoid_homology.abelian._normalize_torsion(orders) == expected, orders


@pytest.mark.parametrize(
    "orders,expected",
    [([2] * 10**4, (2,) * 10**4), ([2, 3] * 5000, (6,) * 5000),
     ([2**k for k in range(1, 200)] * 20, tuple(2**k for k in range(1, 200) for _ in range(20)))],
    ids=["2s", "2s-and-3s", "powers-of-2"],
)
def test_normalization_of_many_orders_is_fast(orders, expected):
    # each order skips the slots it divides by bisection and drops in above a
    # slot that divides it, so repeats cost near-linear time
    start = time.perf_counter()
    g = FinAbGroup(0, orders)
    assert time.perf_counter() - start < 0.2
    assert g.torsion == expected


def test_render_frozen():
    assert FinAbGroup.trivial().render() == "0"
    assert FinAbGroup.free(1).render() == "Z"
    assert FinAbGroup.free(2).render() == "Z^2"
    assert FinAbGroup(1, [3, 6]).render() == "Z ⊕ Z/6 ⊕ Z/3"
    assert FinAbGroup(0, [2, 12]).render(primary=True) == "Z/2 ⊕ Z/4 ⊕ Z/3"
    assert FinAbGroup(0, [15]).render(primary=True) == "Z/3 ⊕ Z/5"


def test_json_roundtrip():
    g = FinAbGroup(2, [2, 6, 12])
    assert FinAbGroup.from_json(g.to_json()) == g
    assert g.to_json() == {"rank": 2, "torsion": [2, 6, 12]}


@pytest.mark.parametrize(
    "data,message",
    [
        ([0, [2]], "group must be a JSON object"),
        ({"torsion": []}, "missing key 'rank'"),
        ({"rank": 1}, "missing key 'torsion'"),
        ({"rank": True, "torsion": []}, "'rank' must be an integer"),
        ({"rank": 1.0, "torsion": []}, "'rank' must be an integer"),
        ({"rank": "1", "torsion": []}, "'rank' must be an integer"),
        ({"rank": 0, "torsion": "2"}, "'torsion' must be a list"),
        ({"rank": 0, "torsion": {"2": 2}}, "'torsion' must be a list"),
        ({"rank": 0, "torsion": [2.0]}, "'torsion' entries must be integers"),
        ({"rank": 0, "torsion": [True]}, "'torsion' entries must be integers"),
        ({"rank": 0, "torsion": ["6"]}, "'torsion' entries must be integers"),
        ({"rank": 0, "torsion": [2, 3]}, "'torsion' must be an invariant-factor chain"),
        ({"rank": 0, "torsion": [6, 2]}, "'torsion' must be an invariant-factor chain"),
    ],
)
def test_from_json_rejects_without_coercing(data, message):
    with pytest.raises(ValueError, match=message):
        FinAbGroup.from_json(data)


def test_validation_errors():
    with pytest.raises(ValueError, match="negative rank"):
        FinAbGroup.free(-1)
    with pytest.raises(ValueError, match="negative cyclic order"):
        FinAbGroup.cyclic(-2)
    with pytest.raises(ValueError):
        FinAbGroup(0, [0])  # zero is not a torsion coefficient


def test_immutability():
    g = FinAbGroup.cyclic(4)
    with pytest.raises(AttributeError):
        g.rank = 5


# -- tensor and tor -------------------------------------------------------------


def tensor_by_summands(a: FinAbGroup, b: FinAbGroup) -> FinAbGroup:
    # independent bilinear expansion over cyclic summands
    orders = []
    for x in (0,) * a.rank + a.torsion:
        for y in (0,) * b.rank + b.torsion:
            if x == 0 and y == 0:
                orders.append(0)
            elif x == 0:
                orders.append(y)
            elif y == 0:
                orders.append(x)
            else:
                orders.append(math.gcd(x, y))
    return FinAbGroup.from_cyclic_orders(orders)


def tor_by_summands(a: FinAbGroup, b: FinAbGroup) -> FinAbGroup:
    orders = []
    for x in a.torsion:
        for y in b.torsion:
            orders.append(math.gcd(x, y))
    return FinAbGroup.from_cyclic_orders(orders)


@pytest.mark.parametrize("seed", range(25))
def test_tensor_tor_against_summand_expansion(seed):
    rng = random.Random(100 + seed)

    def rand_group():
        return FinAbGroup(
            rng.randint(0, 2), [rng.randint(2, 12) for _ in range(rng.randint(0, 3))]
        )

    a, b = rand_group(), rand_group()
    assert tensor(a, b) == tensor_by_summands(a, b)
    assert tensor(a, b) == tensor(b, a)
    assert tor1(a, b) == tor_by_summands(a, b)
    assert tor1(a, b) == tor1(b, a)
    # Z is flat and torsion-free
    assert tensor(a, FinAbGroup.free(1)) == a
    assert tor1(a, FinAbGroup.free(1)).is_trivial()


def test_tensor_tor_frozen():
    z6, z4 = FinAbGroup.cyclic(6), FinAbGroup.cyclic(4)
    assert tensor(z6, z4) == FinAbGroup.cyclic(2)
    assert tor1(z6, z4) == FinAbGroup.cyclic(2)
    assert tensor(FinAbGroup.free(1), z6) == z6
    assert tor1(FinAbGroup.free(2), z6).is_trivial()
    assert direct_sum([z6, z4, FinAbGroup.free(1)]) == FinAbGroup(1, (2, 12))


# -- cokernels ------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(30))
def test_group_of_matches_oracle(seed):
    rng = random.Random(200 + seed)
    nrows, ncols = rng.randint(1, 5), rng.randint(0, 5)
    rows = [[rng.randint(-8, 8) for _ in range(ncols)] for _ in range(nrows)]
    g = group_of(IntegerMatrix.from_rows(rows, cols=ncols))
    diag = oracles.smith_diag_by_elimination(rows) if ncols else []
    expected_rank = nrows - len(diag)
    expected_torsion = tuple(d for d in diag if d > 1)
    assert g.rank == expected_rank
    assert g == FinAbGroup(expected_rank, expected_torsion)


# -- presentations ----------------------------------------------------------------


def test_presented_group_basics():
    zmod = PresentedGroup.cyclic(6)
    assert zmod.group() == FinAbGroup.cyclic(6)
    free = PresentedGroup.free(2)
    assert free.group() == FinAbGroup.free(2)
    assert PresentedGroup.trivial().group().is_trivial()
    d = PresentedGroup.from_diagonal([2, 0, 3])
    assert d.group() == FinAbGroup(1, (6,))


@pytest.mark.parametrize("seed", range(15))
def test_canonical_form_properties(seed):
    rng = random.Random(300 + seed)
    gens = rng.randint(1, 4)
    p = PresentedGroup.from_diagonal([rng.choice([0, 1, 2, 3, 4, 6]) for _ in range(gens)])
    rel = p.relations
    for _ in range(10):
        x = [rng.randint(-9, 9) for _ in range(gens)]
        y = [rng.randint(-9, 9) for _ in range(gens)]
        assert not any(p.canonical_form([0] * gens))
        coeffs = [rng.randint(-3, 3) for _ in range(rel.cols)]
        shift = rel.mul_vector(coeffs) if rel.cols else [0] * gens
        x_shifted = [a + b for a, b in zip(x, shift)]
        # canonical form is constant on cosets of the relation lattice ...
        assert p.canonical_form(x_shifted) == p.canonical_form(x)
        assert not any(p.canonical_form(shift))
        assert (not any(p.canonical_form(x))) == oracles.lattice_contains(raw_rows(rel), [x])
        # ... and therefore addition descends to canonical forms
        lhs = p.canonical_form([a + b for a, b in zip(x, y)])
        rhs = p.canonical_form([a + b for a, b in zip(x_shifted, y)])
        assert lhs == rhs


def test_negative_order_is_rejected():
    with pytest.raises(ValueError, match="negative cyclic order"):
        PresentedGroup.from_diagonal([2, -3])
    with pytest.raises(ValueError, match="negative cyclic order"):
        PresentedGroup.cyclic(-4)


# -- homomorphisms -----------------------------------------------------------------


def test_group_hom_validation():
    z = PresentedGroup.free(1)
    z2 = PresentedGroup.cyclic(2)
    with pytest.raises(ValueError, match="shape mismatch"):
        GroupHom(z, z2, IntegerMatrix.from_rows([[1], [0]]))
    # x -> x is not well defined Z/2 -> Z
    with pytest.raises(ValueError, match="homomorphism does not respect relations"):
        GroupHom(z2, z, IntegerMatrix.from_rows([[1]]))
    # x -> 2x is the zero map Z -> Z/2 even though the matrix is nonzero
    doubled = GroupHom(z, z2, IntegerMatrix.from_rows([[2]]))
    assert doubled.is_zero()
    assert not GroupHom(z, z2, IntegerMatrix.from_rows([[1]])).is_zero()


def test_group_hom_from_columns_checks_column_lengths():
    z, z4 = PresentedGroup.free(1), PresentedGroup.cyclic(4)
    assert GroupHom.from_columns(z, z4, [[2]]).matrix == IntegerMatrix.from_rows([[2]])
    # a longer column was cut to the target's generators, a shorter one hit an IndexError
    for bad, length in (([[1, 7, 9]], 3), ([[]], 0)):
        with pytest.raises(ValueError, match=f"shape mismatch: column 0 has {length} entries for 1 target generators"):
            GroupHom.from_columns(z, z4, bad)
    with pytest.raises(ValueError, match="shape mismatch: column 1 has 1 entries for 0 target generators"):
        GroupHom.from_columns(PresentedGroup.free(2), PresentedGroup.trivial(), [[], [0]])


def test_group_hom_entrywise_checks():
    # a free, an order-1 and an order-6 source generator into Z/4 ⊕ Z
    source = PresentedGroup.from_diagonal([0, 1, 6])
    target = PresentedGroup.from_diagonal([4, 0])
    hom = GroupHom(source, target, IntegerMatrix.from_rows([[3, 4, 2], [5, 0, 0]]))
    assert not hom.is_zero()
    for bad in (
        [[0, 1, 0], [0, 0, 0]],  # the order-1 generator hits 1 in Z/4
        [[0, 0, 0], [0, -1, 0]],  # ... or a nonzero element of the free row
        [[0, 0, 1], [0, 0, 0]],  # 6·1 is not 0 in Z/4
        [[0, 0, 0], [0, 0, 2]],  # torsion into the free row
    ):
        with pytest.raises(ValueError, match="homomorphism does not respect relations"):
            GroupHom(source, target, IntegerMatrix.from_rows(bad))
    assert GroupHom(source, target, IntegerMatrix.from_rows([[4, -8, 0], [0, 0, 0]])).is_zero()
    assert not GroupHom(source, target, IntegerMatrix.from_rows([[0, 0, 0], [1, 0, 0]])).is_zero()
    assert not GroupHom(source, target, IntegerMatrix.from_rows([[2, 0, 0], [0, 0, 0]])).is_zero()
    assert GroupHom.zero(PresentedGroup.trivial(), target).is_zero()
    assert GroupHom.zero(source, PresentedGroup.trivial()).is_zero()


@pytest.mark.parametrize("seed", range(30))
def test_group_hom_checks_against_lattice_membership(seed):
    # respects relations iff each source relation maps into the target's
    # relation lattice; zero iff every generator image does
    rng = random.Random(500 + seed)
    source = PresentedGroup.from_diagonal([rng.choice([0, 1, 2, 4, 6]) for _ in range(rng.randint(0, 3))])
    target = PresentedGroup.from_diagonal([rng.choice([0, 1, 2, 3, 4]) for _ in range(rng.randint(0, 3))])
    matrix = IntegerMatrix.from_rows(
        [[rng.choice([0, 0, 1, 2, 3, 4, -6]) for _ in range(source.generators)]
         for _ in range(target.generators)],
        cols=source.generators,
    )
    lattice = raw_rows(target.relations)
    images = [matrix.column(j) for j in range(matrix.cols)]
    respects = oracles.lattice_contains(
        lattice, [[s * x for x in col] for s, col in zip(source.orders, images)]
    )
    if not respects:
        with pytest.raises(ValueError, match="homomorphism does not respect relations"):
            GroupHom(source, target, matrix)
        return
    assert GroupHom(source, target, matrix).is_zero() == oracles.lattice_contains(lattice, images)


# -- middle homology ------------------------------------------------------------------


def test_middle_homology_frozen():
    z = PresentedGroup.free(1)
    z2 = PresentedGroup.cyclic(2)
    z4 = PresentedGroup.cyclic(4)
    two = GroupHom(z, z, IntegerMatrix.from_rows([[2]]))
    quot = GroupHom(z, z2, IntegerMatrix.from_rows([[1]]))
    assert middle_homology(two, quot).is_trivial()
    # Z/2 --x2--> Z/4 --> 0 leaves Z/4 / {0,2} = Z/2
    inc = GroupHom(z2, z4, IntegerMatrix.from_rows([[2]]))
    collapse = GroupHom(z4, PresentedGroup.trivial(), IntegerMatrix.from_rows([], cols=1))
    assert middle_homology(inc, collapse) == FinAbGroup.cyclic(2)
    # 0 -> Z --quot--> Z/2 is exact at Z/2? image = Z/2, kernel = Z/2
    zero_in = GroupHom.zero(PresentedGroup.trivial(), z)
    assert middle_homology(zero_in, two) == FinAbGroup.trivial()  # ker(x2) = 0 in Z


def test_middle_homology_errors():
    z = PresentedGroup.free(1)
    z2 = PresentedGroup.cyclic(2)
    ident = GroupHom(z, z, IntegerMatrix.from_rows([[1]]))
    quot = GroupHom(z, z2, IntegerMatrix.from_rows([[1]]))
    with pytest.raises(ValueError, match="composite nonzero"):
        middle_homology(ident, quot)
    other = GroupHom(z2, z2, IntegerMatrix.from_rows([[1]]))
    with pytest.raises(ValueError, match="mismatched node"):
        middle_homology(other, quot)


@pytest.mark.parametrize("a,b", [(2, 3), (2, 4), (3, 5), (4, 6), (6, 6), (2, 8)])
def test_middle_homology_exact_sequences(a, b):
    # Z/a --xb--> Z/ab --proj--> Z/b is exact in the middle
    za = PresentedGroup.cyclic(a)
    zab = PresentedGroup.cyclic(a * b)
    zb = PresentedGroup.cyclic(b)
    f = GroupHom(za, zab, IntegerMatrix.from_rows([[b]]))
    g = GroupHom(zab, zb, IntegerMatrix.from_rows([[1]]))
    assert middle_homology(f, g).is_trivial()
    # and the enumeration oracle agrees that im = ker
    assert oracles.exactness_by_enumeration(
        [[a]], [[b]], [[a * b]], [[1]], [[b]]
    )


@pytest.mark.parametrize("seed", range(12))
def test_middle_homology_against_enumeration(seed):
    # random finite three-term data with composite forced to zero
    rng = random.Random(400 + seed)
    d1, d2, d3 = (rng.choice([2, 3, 4, 6]) for _ in range(3))
    m_node = PresentedGroup.from_diagonal([d2, d2])
    a_node = PresentedGroup.cyclic(d1)
    t_node = PresentedGroup.cyclic(d3)
    f_matrix = IntegerMatrix.from_rows([[rng.randint(0, d2 - 1) * d2 // math.gcd(d2, d1)] , [0]])
    # g must kill the image of f: use a map vanishing on the first generator
    g_matrix = IntegerMatrix.from_rows([[0, rng.randint(0, d3 - 1) * d3 // math.gcd(d3, d2)]])
    try:
        f = GroupHom(a_node, m_node, f_matrix)
        g = GroupHom(m_node, t_node, g_matrix)
    except ValueError:
        return
    defect = middle_homology(f, g)
    exact_says = oracles.exactness_by_enumeration(
        [[d1]],
        [f_matrix.row(0), f_matrix.row(1)],
        [[d2, 0], [0, d2]],
        [g_matrix.row(0)],
        [[d3]],
    )
    assert exact_says == defect.is_trivial()


def test_middle_homology_mixed_node_with_free_target_rows():
    node = PresentedGroup.from_diagonal([0, 4])  # Z ⊕ Z/4
    target = PresentedGroup.from_diagonal([0, 2])  # Z ⊕ Z/2
    z = PresentedGroup.free(1)
    zero_in = GroupHom.zero(PresentedGroup.trivial(), node)
    # (x, y) -> (x, y mod 2): the kernel is 0 ⊕ {0, 2}
    g = GroupHom(node, target, IntegerMatrix.from_rows([[1, 0], [0, 1]]))
    assert middle_homology(zero_in, g) == FinAbGroup.cyclic(2)
    assert middle_homology(GroupHom(z, node, IntegerMatrix.from_rows([[0], [2]])), g).is_trivial()
    # (x, y) -> (0, y mod 2): the kernel is Z ⊕ {0, 2}
    g = GroupHom(node, target, IntegerMatrix.from_rows([[0, 0], [0, 1]]))
    assert middle_homology(zero_in, g) == FinAbGroup(1, [2])
    assert middle_homology(GroupHom(z, node, IntegerMatrix.from_rows([[3], [0]])), g) == FinAbGroup(0, [6])
    # (x, y) -> 2x in Z: the kernel is the Z/4
    g = GroupHom(node, z, IntegerMatrix.from_rows([[2, 0]]))
    assert middle_homology(zero_in, g) == FinAbGroup.cyclic(4)
    assert middle_homology(GroupHom(z, node, IntegerMatrix.from_rows([[0], [1]])), g).is_trivial()
    # a composite that is nonzero in the free row, then in the Z/2 row
    with pytest.raises(ValueError, match="composite nonzero"):
        middle_homology(GroupHom(z, node, IntegerMatrix.from_rows([[1], [0]])), g)
    g = GroupHom(node, target, IntegerMatrix.from_rows([[0, 0], [0, 1]]))
    with pytest.raises(ValueError, match="composite nonzero"):
        middle_homology(GroupHom(z, node, IntegerMatrix.from_rows([[0], [1]])), g)


@pytest.mark.parametrize("seed", range(20))
def test_middle_homology_three_generators_against_enumeration(seed):
    # a random finite node with 3 generators, a valid g out of it, and f
    # sending each source generator to a random element of ker g
    rng = random.Random(900 + seed)
    m_orders = [rng.choice([1, 2, 3, 4, 6]) for _ in range(3)]
    t_orders = [rng.choice([1, 2, 4, 6]) for _ in range(2)]
    g_rows = [[rng.randint(0, 3) * (t // math.gcd(t, s)) for s in m_orders] for t in t_orders]
    elements = list(itertools.product(*map(range, m_orders)))
    kernel = [
        x for x in elements
        if all(sum(a * b for a, b in zip(row, x)) % t == 0 for row, t in zip(g_rows, t_orders))
    ]
    images = [rng.choice(kernel) for _ in range(rng.randint(1, 2))]

    def order(x):
        return next(k for k in itertools.count(1) if all(k * v % q == 0 for v, q in zip(x, m_orders)))

    span = {
        tuple(sum(c * x[i] for c, x in zip(coeffs, images)) % q for i, q in enumerate(m_orders))
        for coeffs in itertools.product(*(range(order(x)) for x in images))
    }
    a_node = PresentedGroup.from_diagonal([order(x) for x in images])
    m_node = PresentedGroup.from_diagonal(m_orders)
    t_node = PresentedGroup.from_diagonal(t_orders)
    f = GroupHom(a_node, m_node, IntegerMatrix.from_rows([list(c) for c in zip(*images)]))
    g = GroupHom(m_node, t_node, IntegerMatrix.from_rows(g_rows))
    defect = middle_homology(f, g)
    assert defect.order() == len(kernel) // len(span)
    assert defect.is_trivial() == oracles.exactness_by_enumeration(
        raw_rows(a_node.relations), raw_rows(f.matrix), raw_rows(m_node.relations),
        raw_rows(g.matrix), raw_rows(t_node.relations),
    )
