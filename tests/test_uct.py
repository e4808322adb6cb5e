"""Tests for coefficient homology: the splitting comparison, the mod-q
reduction map on representatives, and the discrete-coefficient obstruction.

The assembled group (tensor part plus Tor part) is checked against homology
computed directly with coefficients — an independent chain-level route — on
frozen cases, preset groupoids, and randomized disguised complexes.
"""

import inspect
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from groupoid_homology import (
    DEFAULT_BUDGET,
    FinAbGroup,
    cantor_obstruction,
    decompose_step_function,
    disjoint_union,
    homology_groups,
    homology_results,
    coefficient_homology,
    mod_reduction_check,
    moore_complex,
    one_object_cyclic,
    pair,
    action,
    units,
    uct_assemble,
    uct_verify,
)
from groupoid_homology import chains, uct

import oracles
from test_acceptance import corpus
from test_chains import klein_complex, random_disguised
from test_cli import child_env


# -- the two integral routes agree ----------------------------------------------------

CORPUS = corpus()


@pytest.mark.parametrize("name,g", CORPUS, ids=[c[0] for c in CORPUS])
def test_integral_routes_agree_on_corpus(name, g):
    # iso types come from invariant factors alone; the representative route
    # through full Smith transforms must give the same groups
    c = moore_complex(g, 3)
    direct = coefficient_homology(c, FinAbGroup.free(1))
    for n in range(3):
        group = homology_groups(c, 0, n)[n]
        assert group == homology_results(c, 0, n)[n].group
        assert group == direct[n]


def test_coefficient_homology_builds_no_homology_result(monkeypatch):
    # Z/d iso types come from the cone route alone: no representatives, no
    # Smith transforms; the closed form per orbit with isotropy Z/k is Z/d in
    # degree 0 and Z/gcd(k, d) above
    def refuse(*args, **kwargs):
        raise AssertionError("HomologyResult built for an iso type")

    monkeypatch.setattr(chains.HomologyResult, "__init__", refuse)
    c = moore_complex(one_object_cyclic(6), 3)
    coefficients = FinAbGroup.from_cyclic_orders([0, 4, 6])
    groups = coefficient_homology(c, coefficients)
    assert groups == [
        FinAbGroup.from_cyclic_orders([0, 4, 6]),
        FinAbGroup.from_cyclic_orders([6, 2, 6]),
        FinAbGroup.from_cyclic_orders([2, 6]),
    ]
    assert all(r.match for r in uct_verify(one_object_cyclic(4), FinAbGroup.cyclic(6), 3))


def test_uct_verify_sweeps_each_modulus_once(monkeypatch):
    # the integral row and the free summand of Z ⊕ Z/4 share one integral
    # sweep; a repeated invariant factor is swept once too
    moduli = []
    real = uct.homology_groups
    monkeypatch.setattr(uct, "homology_groups", lambda c, q=0, top=None: moduli.append(q) or real(c, q, top))
    reports = uct_verify(one_object_cyclic(4), FinAbGroup(1, [4]), 3)
    assert moduli == [0, 4]
    assert all(r.match for r in reports)
    assert [r.direct for r in reports] == [FinAbGroup(1, [4]), FinAbGroup(0, [4, 4]), FinAbGroup(0, [4])]
    moduli.clear()
    assert coefficient_homology(moore_complex(one_object_cyclic(6), 3), FinAbGroup(0, [2, 2])) == [
        FinAbGroup(0, [2, 2]), FinAbGroup(0, [2, 2]), FinAbGroup(0, [2, 2])]
    assert moduli == [2]


# -- uct_assemble frozen arithmetic ---------------------------------------------------


def test_assemble_frozen_mixed():
    hn = FinAbGroup(1, (4,))  # Z + Z/4
    below = FinAbGroup(0, (4,))
    a = FinAbGroup.cyclic(6)
    tensor_part, tor_part, assembled = uct_assemble(hn, below, a)
    assert tensor_part == FinAbGroup(0, (2, 6))  # Z/6 from Z, Z/gcd(4,6) from Z/4
    assert tor_part == FinAbGroup(0, (2,))  # Tor(Z/4, Z/6) = Z/2
    assert assembled == FinAbGroup(0, (2, 2, 6))


def test_assemble_frozen_free():
    tensor_part, tor_part, assembled = uct_assemble(
        FinAbGroup.free(2), FinAbGroup.free(5), FinAbGroup.free(1)
    )
    assert tensor_part == FinAbGroup.free(2)
    assert tor_part.is_trivial()
    assert assembled == FinAbGroup.free(2)


def test_assemble_frozen_tor_only():
    tensor_part, tor_part, assembled = uct_assemble(
        FinAbGroup.trivial(), FinAbGroup.cyclic(9), FinAbGroup.cyclic(12)
    )
    assert tensor_part.is_trivial()
    assert tor_part == FinAbGroup.cyclic(3)
    assert assembled == FinAbGroup.cyclic(3)


def test_assemble_coefficient_with_rank():
    hn = FinAbGroup.cyclic(3)
    a = FinAbGroup(1, (2,))  # Z + Z/2
    tensor_part, tor_part, assembled = uct_assemble(hn, FinAbGroup.trivial(), a)
    assert tensor_part == FinAbGroup.cyclic(3)  # Z/3 x Z/2 tensors away
    assert tor_part.is_trivial()
    assert assembled == FinAbGroup.cyclic(3)


# -- complex-level splitting comparison ----------------------------------------------


def test_splitting_on_klein_style_complex():
    c = klein_complex()
    h0 = homology_results(c, 0, 0)[0].group
    h1 = homology_results(c, 0, 1)[1].group
    a = FinAbGroup(2, (2,))  # Z^2 + Z/2
    _, _, assembled = uct_assemble(h1, h0, a)
    assert assembled == coefficient_homology(c, a)[1]
    assert assembled == FinAbGroup(2, (2, 2, 2, 2))


@pytest.mark.parametrize("seed", range(10))
def test_splitting_on_disguised_complexes(seed):
    c, expected = random_disguised(200 + seed, depth=3)
    rng = random.Random(seed)
    coeffs = [
        FinAbGroup.free(1),
        FinAbGroup.cyclic(rng.choice([2, 3, 4, 6, 8, 12])),
        FinAbGroup(rng.randint(0, 1), (rng.choice([2, 4]), rng.choice([6, 12]))),
    ]
    for a in coeffs:
        direct = coefficient_homology(c, a)
        for n in range(c.max_degree):
            below = expected[n - 1] if n >= 1 else FinAbGroup.trivial()
            _, _, assembled = uct_assemble(expected[n], below, a)
            assert assembled == direct[n], (a, n)


def test_trivial_coefficients_kill_everything():
    c = klein_complex()
    assert coefficient_homology(c, FinAbGroup.trivial())[1].is_trivial()


# -- groupoid-level sweep -------------------------------------------------------------


CORPUS = [
    units(2),
    one_object_cyclic(4),
    pair(2),
    action(4, [1, 0]),
    disjoint_union(one_object_cyclic(2), one_object_cyclic(3)),
]

COEFFS = [
    FinAbGroup.free(1),
    FinAbGroup.cyclic(2),
    FinAbGroup.cyclic(6),
    FinAbGroup(1, (4,)),
]


@pytest.mark.parametrize("gi", range(len(CORPUS)))
@pytest.mark.parametrize("ai", range(len(COEFFS)))
def test_uct_verify_sweep(gi, ai):
    g, a = CORPUS[gi], COEFFS[ai]
    reports = uct_verify(g, a, 3)
    assert [r.degree for r in reports] == [0, 1, 2]
    for r in reports:
        assert r.match, (gi, ai, r.degree)
        assert r.assembled == r.tensor_part.direct_sum(r.tor_part)
        assert r.assembled == r.direct
        assert r.coefficient == a


def test_uct_verify_against_closed_form():
    # for one-object cyclic groupoids the direct route has an external oracle
    for m, q in ((2, 2), (3, 6), (4, 2), (6, 9)):
        reports = uct_verify(one_object_cyclic(m), FinAbGroup.cyclic(q), 3)
        for r in reports:
            rank, torsion = oracles.cyclic_homology_mod(m, q, r.degree)
            assert rank == 0
            assert r.direct == FinAbGroup.from_cyclic_orders(torsion)
            assert r.match


def test_uct_report_json():
    (report,) = uct_verify(units(1), FinAbGroup.cyclic(3), 1)
    data = report.to_json()
    assert data["degree"] == 0
    assert data["match"] is True
    assert data["integral_n"] == {"rank": 1, "torsion": []}
    assert data["coefficient"] == {"rank": 0, "torsion": [3]}
    assert data["assembled"] == {"rank": 0, "torsion": [3]}


# -- mod-q reduction on representatives ----------------------------------------------


def test_reduction_image_full_torsion():
    # H_1 = Z/5 reduces onto all of H_1 with Z/5 coefficients
    report = mod_reduction_check(one_object_cyclic(5), 5, 1)
    assert report.integral == FinAbGroup.cyclic(5)
    assert report.direct == FinAbGroup.cyclic(5)
    assert report.image == FinAbGroup.cyclic(5)
    assert report.tor_part.is_trivial()


def test_reduction_image_trivial_tor_only():
    # H_2 = 0 but H_2 with Z/2 coefficients is Z/2, carried entirely by Tor
    report = mod_reduction_check(one_object_cyclic(2), 2, 2)
    assert report.integral.is_trivial()
    assert report.direct == FinAbGroup.cyclic(2)
    assert report.image.is_trivial()
    assert report.tor_part == FinAbGroup.cyclic(2)


def test_reduction_image_proper_subgroup():
    # H_1 = Z/6 lands in H_1(;Z/4) = Z/2 as the full tensor part
    report = mod_reduction_check(one_object_cyclic(6), 4, 1)
    assert report.integral == FinAbGroup.cyclic(6)
    assert report.direct == FinAbGroup.cyclic(2)
    assert report.image == FinAbGroup.cyclic(2)
    assert report.tor_part.is_trivial()


def test_reduction_free_part():
    # H_0 = Z^2 reduces onto (Z/3)^2 with trivial Tor below degree 0
    report = mod_reduction_check(units(2), 3, 0)
    assert report.integral == FinAbGroup.free(2)
    assert report.image == FinAbGroup(0, (3, 3))
    assert report.direct == FinAbGroup(0, (3, 3))


def test_reduction_modulus_one_and_errors():
    report = mod_reduction_check(one_object_cyclic(3), 1, 1)
    assert report.direct.is_trivial()
    assert report.image.is_trivial()
    with pytest.raises(ValueError, match="modulus must be >= 1"):
        mod_reduction_check(one_object_cyclic(3), 0, 1)


@pytest.mark.parametrize("seed", range(5))
def test_reduction_seed_independence(seed):
    # the probe shifts are randomized; the verdict must not depend on them
    report = mod_reduction_check(disjoint_union(one_object_cyclic(4), units(1)), 2, 1, seed=seed)
    assert report.image == FinAbGroup.cyclic(2)
    assert report.direct == FinAbGroup.cyclic(2)


# Each fake gives every Z/q class of a cycle the same coordinates, so the
# boundary and q-shift probes pass and the map κ itself is at fault.
KAPPA_FAULTS = [
    pytest.param(
        "one_object_cyclic(6)", "tuple(0 for _ in self.presentation.orders)",
        "κ has kernel Z/2 on H_1 ⊗ Z/4", id="not-injective",
    ),
    pytest.param(
        "disjoint_union(one_object_cyclic(2), one_object_cyclic(4))",
        "tuple(int(d == 4) for d in self.presentation.orders)",  # the order-2 generator to 1·(order 4)
        "κ is not well defined on H_1 ⊗ Z/4 with orders (2, 4)", id="not-well-defined",
    ),
]


@pytest.mark.parametrize("groupoid,fake,message", KAPPA_FAULTS)
def test_reduction_fault_reaches_its_raise_under_optimize_flag(groupoid, fake, message):
    program = "\n".join(
        [
            "from groupoid_homology import HomologyResult, disjoint_union, mod_reduction_check,"
            " one_object_cyclic",
            "real = HomologyResult.class_coords",
            f"HomologyResult.class_coords = lambda self, c: ({fake}) if self.modulus else real(self, c)",
            f"mod_reduction_check({groupoid}, 4, 1)",
        ]
    )
    proc = subprocess.run([sys.executable, "-O", "-c", program], capture_output=True, text=True,
                          timeout=120, env=child_env())
    assert proc.returncode != 0
    assert f"ValueError: reduction map image mismatch: {message}" in proc.stderr


def test_budget_none_means_no_budget(monkeypatch):
    # as for moore_complex and the MV entry points: the default is
    # DEFAULT_BUDGET, and an explicit None lifts the cap
    seen = []
    real = uct.moore_complex
    signature = inspect.signature(real)

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        seen.append(bound.arguments["budget"])
        return real(*args, **kwargs)

    monkeypatch.setattr(uct, "moore_complex", recording)
    g = one_object_cyclic(2)
    uct_verify(g, FinAbGroup.cyclic(2), 2)
    mod_reduction_check(g, 2, 1)
    assert seen == [DEFAULT_BUDGET, DEFAULT_BUDGET]
    uct_verify(g, FinAbGroup.cyclic(2), 2, budget=None)
    mod_reduction_check(g, 2, 1, budget=None)
    assert seen[2:] == [None, None]


# -- the discrete-coefficient obstruction --------------------------------------------


@pytest.mark.parametrize("level", range(1, 11))
def test_cylinder_widths_exact(level):
    report = cantor_obstruction(level)
    assert report.level == level
    assert len(report.cylinders) == 2**level
    for index, cyl in enumerate(report.cylinders):
        assert cyl.width == oracles.dyadic_width(level)
        assert cyl.low == Fraction(index, 2**level)
        assert cyl.high == cyl.low + Fraction(1, 2**level)
        # the prefix is the binary expansion of the cylinder index
        assert sum(b << (level - 1 - i) for i, b in enumerate(cyl.prefix)) == index
        assert all(b in (0, 1) for b in cyl.prefix)
    assert report.all_widths_positive


def test_cantor_consecutive_cylinders_tile_the_interval():
    report = cantor_obstruction(4)
    for left, right in zip(report.cylinders, report.cylinders[1:]):
        assert left.high == right.low + Fraction(1, 16) or left.high == right.low
    assert report.cylinders[0].low == 0
    assert report.cylinders[-1].high == 1


def test_cantor_json_and_errors():
    report = cantor_obstruction(2)
    data = report.to_json()
    assert data["level"] == 2
    assert data["cylinders"][1] == {
        "prefix": [0, 1],
        "low": "1/4",
        "high": "1/2",
        "width": "1/4",
    }
    with pytest.raises(ValueError, match="level must be >= 1"):
        cantor_obstruction(0)


def test_step_function_frozen():
    assert decompose_step_function([1, 0, 2, 1]) == [(1, [0, 3]), (2, [2])]
    assert decompose_step_function([0, 0]) == []
    assert decompose_step_function([-3, -3, 5, 0]) == [(-3, [0, 1]), (5, [2])]


@pytest.mark.parametrize("seed", range(100))
def test_step_function_random_inverses(seed):
    rng = random.Random(seed)
    level = rng.randint(1, 6)
    values = [rng.randint(-5, 5) for _ in range(2**level)]
    decomposition = decompose_step_function(values)
    # independently rebuild the function from the indicator decomposition
    rebuilt = [0] * len(values)
    seen = set()
    for value, cylinders in decomposition:
        assert value != 0
        assert value not in seen
        seen.add(value)
        assert cylinders == sorted(cylinders)
        for c in cylinders:
            rebuilt[c] += value
    assert rebuilt == values
    # every listed cylinder really carries its value (true inverse images)
    for value, cylinders in decomposition:
        assert cylinders == [c for c, v in enumerate(values) if v == value]
