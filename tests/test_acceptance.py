"""Acceptance suite: ten end-to-end guarantees, one test per criterion.

Each test prints exactly one `ACCEPTANCE n PASS` / `ACCEPTANCE n FAIL` line
(outside pytest's capture, so it is always visible) and enforces a pinned
wall-clock budget where one applies.  The criteria cover:

 1. unit-groupoid homology through the command-line frontend,
 2. cyclic bar homology against an independent periodic-resolution oracle,
 3. a universal-coefficient sweep over the whole corpus,
 4. finite-coefficient homology against exhaustive enumeration,
 5. chain-level exactness of every cover decomposition,
 6. long-exact-sequence exactness plus connecting-map verification,
 7. closed-form two-parameter family tables (integral, mod q, and UCT route),
 8. full-shift homology against the transition-matrix route,
 9. soundness of the classification experiment and its collision search,
10. the exact Cantor cylinder-range obstruction and its discrete inverse.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from groupoid_homology import (
    FamilySpec,
    FinAbGroup,
    action,
    cantor_obstruction,
    chain_ses,
    classify,
    collision_search,
    decompose,
    decompose_step_function,
    disjoint_union,
    family_h1_oracle,
    family_integral,
    family_mod,
    full_shift_homology,
    full_shift_matrix,
    homology_groups,
    homology_mod,
    invariant_factors,
    long_exact_sequence,
    moore_complex,
    one_object_cyclic,
    pair,
    sft_matrix_homology,
    uct_assemble,
    uct_verify,
    units,
)
from groupoid_homology.cli import main as cli_main

import oracles
from test_mv import kernel_equals_image, mv_matrices, three_orbit_covers


@contextlib.contextmanager
def criterion(capsys, number: int, time_limit: float | None = None):
    """Wrap one criterion body; print its verdict line and enforce the budget."""
    info = {"note": ""}
    start = time.perf_counter()
    body_failed = False
    try:
        yield info
    except BaseException:
        body_failed = True
        raise
    finally:
        elapsed = time.perf_counter() - start
        too_slow = time_limit is not None and not body_failed and elapsed >= time_limit
        verdict = "FAIL" if (body_failed or too_slow) else "PASS"
        line = f"ACCEPTANCE {number} {verdict} ({elapsed:.2f}s)"
        if info["note"]:
            line += f" -- {info['note']}"
        with capsys.disabled():
            print(line)
        info["elapsed"] = elapsed
        info["too_slow"] = too_slow
    if info["too_slow"]:
        pytest.fail(
            f"criterion {number} exceeded {time_limit}s wall clock: "
            f"{info['elapsed']:.2f}s"
        )


def corpus():
    """The finite test corpus: unit, cyclic, pair, action, and union groupoids."""
    return [
        ("units(1)", units(1)),
        ("units(2)", units(2)),
        ("units(3)", units(3)),
        ("cyclic(2)", one_object_cyclic(2)),
        ("cyclic(3)", one_object_cyclic(3)),
        ("cyclic(4)", one_object_cyclic(4)),
        ("cyclic(5)", one_object_cyclic(5)),
        ("cyclic(6)", one_object_cyclic(6)),
        ("pair(2)", pair(2)),
        ("pair(3)", pair(3)),
        ("action(4, swap)", action(4, [1, 0])),
        ("cyclic(2)+cyclic(3)", disjoint_union(one_object_cyclic(2), one_object_cyclic(3))),
        ("units(1)+pair(2)", disjoint_union(units(1), pair(2))),
    ]


def from_orders(orders) -> FinAbGroup:
    return FinAbGroup.from_cyclic_orders(list(orders))


def test_criterion_01_unit_groupoid(capsys, tmp_path):
    """H_*(point): Z in degree 0, nothing above, through the CLI, under 1 s."""
    with criterion(capsys, 1, time_limit=1.0):
        path = str(tmp_path / "u1.json")
        assert cli_main(["gen", "units:1", "-o", path]) == 0
        out, err = io_run(["homology", "-i", path, "-N", "5"])
        assert err == ""
        assert out.splitlines()[1:] == [
            "  H_0 = Z",
            "  H_1 = 0",
            "  H_2 = 0",
            "  H_3 = 0",
            "  H_4 = 0",
        ]


def io_run(argv):
    """Run the CLI in-process and return (stdout, stderr); assert exit 0."""
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    assert code == 0, err.getvalue()
    return out.getvalue(), err.getvalue()


def test_criterion_02_cyclic_bar_homology(capsys):
    """One-object cyclic groupoids match the periodic-resolution oracle, < 30 s."""
    with criterion(capsys, 2, time_limit=30.0):
        for m in (2, 3, 4, 6):
            complex_ = moore_complex(one_object_cyclic(m), 4)
            computed = [homology_groups(complex_, 0, n)[n] for n in range(4)]
            closed_form = [
                FinAbGroup.free(1),
                FinAbGroup.cyclic(m),
                FinAbGroup.trivial(),
                FinAbGroup.cyclic(m),
            ]
            assert computed == closed_form, f"m={m}"
            for n in range(4):
                rank_, torsion = oracles.cyclic_homology_int(m, n)
                assert computed[n] == from_orders(list(torsion) + [0] * rank_), (m, n)


def test_criterion_03_uct_sweep(capsys):
    """Mod-q homology equals tensor (+) tor for the corpus, q <= 12, deg <= 2."""
    with criterion(capsys, 3, time_limit=300.0) as info:
        checked = 0
        for name, g in corpus():
            for q in range(1, 13):
                reports = uct_verify(g, FinAbGroup.cyclic(q), 3)
                assert len(reports) == 3
                for r in reports:
                    assert r.match, f"{name}, q={q}, degree {r.degree}"
                    assert r.assembled == r.direct
                    checked += 1
        assert checked == len(corpus()) * 12 * 3
        info["note"] = f"{checked} degree checks"


def test_criterion_04_mod_q_enumeration(capsys):
    """homology_mod agrees with exhaustive enumeration wherever q^dim <= 1e6."""
    with criterion(capsys, 4) as info:
        limit = 10**6
        checked = 0
        for name, g in corpus():
            complex_ = moore_complex(g, 3)
            for n in range(3):
                bn = complex_.boundaries[n]
                bn1 = complex_.boundaries[n + 1]
                rows_n = [bn.row(i) for i in range(bn.rows)]
                rows_n1 = [bn1.row(i) for i in range(bn1.rows)]
                for q in range(1, 13):
                    if q ** complex_.dims[n] > limit:
                        continue
                    result = homology_mod(complex_, q, n)
                    powers, order = oracles.enumerate_mod_homology(
                        rows_n, rows_n1, complex_.dims[n], q, limit
                    )
                    assert result.group.rank == 0, (name, q, n)
                    assert result.group.order() == order, (name, q, n)
                    assert sorted(result.group.primary_decomposition()) == powers
                    assert homology_groups(complex_, q, n)[n] == result.group, (name, q, n)
                    checked += 1
        assert checked >= 300, f"enumeration sweep looks vacuous: {checked} instances"
        info["note"] = f"{checked} instances"


def test_criterion_05_mv_chain_exactness(capsys):
    """Cover decompositions give exact chain sequences: literal lattice identities."""
    with criterion(capsys, 5) as info:
        covers = three_orbit_covers()
        assert len(covers) >= 6
        for name, g, u1, u2 in covers:
            ses = chain_ses(decompose(g, u1, u2), 3)
            for n in range(4):
                dim1, dim2, dim12 = map(len, ses.positions[n])
                dim_total = ses.total_complex.dims[n]
                alpha, beta = mv_matrices(ses, n)
                assert dim1 + dim2 == dim_total + dim12, (name, n)
                assert beta.matmul(alpha).is_zero(), (name, n)
                assert invariant_factors(alpha) == [1] * dim12, (name, n)
                assert invariant_factors(beta) == [1] * dim_total, (name, n)
                assert kernel_equals_image(beta, alpha), (name, n)
        info["note"] = f"{len(covers)} covers, degrees 0..3"


def test_criterion_06_mv_les_exactness(capsys):
    """Assembled long exact sequences are exact; connecting maps verified."""
    with criterion(capsys, 6) as info:
        covers = three_orbit_covers()
        assert len(covers) >= 6
        cycles_checked = 0
        for name, g, u1, u2 in covers:
            les = long_exact_sequence(decompose(g, u1, u2), 3)
            for label, defect in les.verify_exactness():
                assert defect.is_trivial(), f"{name}: not exact at {label}"
            rng = random.Random(2026)
            for n in range(3):
                total = les.ses.homology("total", n)
                for z in total.cycle_reps:
                    canonical = les.ses.connecting(n, z)
                    alternative = les.ses.connecting(n, z, rng=rng)
                    assert canonical.is_boundary, (name, n)
                    if n >= 1:
                        below = les.ses.homology("piece12", n - 1)
                        assert below.same_class(
                            canonical.witness, alternative.witness
                        ), (name, n)
                    cycles_checked += 1
        assert cycles_checked > 0
        info["note"] = f"{len(covers)} covers, {cycles_checked} connecting cycles"


def test_criterion_07_family_tables(capsys):
    """Two-parameter family: closed forms, mod-q tables, and the UCT route, < 10 s."""
    with criterion(capsys, 7, time_limit=10.0) as info:
        checked = 0
        for n, m in itertools.product(range(2, 8), repeat=2):
            spec = FamilySpec(n, m)
            integral = family_integral(spec, 2)
            assert integral[0] == from_orders([n - 1, m - 1, 0])
            assert integral[1].is_trivial()
            assert integral[2].is_trivial()
            for q in range(1, 13):
                row = family_mod(spec, q)
                assert row.h0 == from_orders([q, math.gcd(n - 1, q), math.gcd(m - 1, q)])
                assert row.h1 == from_orders([math.gcd(n - 1, q), math.gcd(m - 1, q)])
                coeff = FinAbGroup.cyclic(q)
                _, _, via_uct0 = uct_assemble(integral[0], FinAbGroup.trivial(), coeff)
                _, _, via_uct1 = uct_assemble(integral[1], integral[0], coeff)
                assert row.h0 == via_uct0 and row.h1 == via_uct1, (n, m, q)
                checked += 1
        info["note"] = f"{checked} (n, m, q) tables"


def test_criterion_08_full_shift_consistency(capsys):
    """Full-shift closed form equals the transition-matrix route, 2 <= n <= 12."""
    with criterion(capsys, 8):
        for n in range(2, 13):
            groups = full_shift_homology(n, 2)
            matrix_h0, matrix_h1 = sft_matrix_homology(full_shift_matrix(n))
            assert groups[0] == matrix_h0 == from_orders([n - 1]), n
            assert groups[1] == matrix_h1 == FinAbGroup.trivial(), n
            assert groups[2].is_trivial()


def test_criterion_09_classification(capsys):
    """classify is sound for all families n, m <= 9; collision search reported."""
    with criterion(capsys, 9, time_limit=120.0) as info:
        for n in range(2, 10):
            for m in range(n, 10):
                spec = FamilySpec(n, m)
                candidates = classify(family_h1_oracle(spec), 9)
                assert spec.unordered in candidates, f"classify missed ({n}, {m})"
        collisions = collision_search(9, 2520)
        rendered = ", ".join(
            "{%d,%d}~{%d,%d}" % (a.unordered + b.unordered) for a, b in collisions
        )
        flagged = {(a.unordered, b.unordered) for a, b in collisions}
        assert ((2, 7), (3, 4)) in flagged, "expected {2,7}/{3,4} to be flagged"
        info["note"] = f"collision_search(9, 2520) -> [{rendered}]"


def test_criterion_10_cantor_obstruction(capsys):
    """Exact 2^-k cylinder widths; the discrete inverse works on random data."""
    with criterion(capsys, 10) as info:
        for k in range(1, 11):
            report = cantor_obstruction(k)
            assert report.level == k
            assert len(report.cylinders) == 2**k
            for cyl in report.cylinders:
                assert cyl.width == Fraction(1, 2**k)
                assert len(cyl.prefix) == k
        rng = random.Random(77)
        inverted = 0
        for _ in range(100):
            k = rng.randint(1, 6)
            values = [rng.randrange(-3, 6) for _ in range(2**k)]
            parts = decompose_step_function(values)
            rebuilt = [0] * len(values)
            for value, positions in parts:
                assert value != 0
                assert positions == [i for i, x in enumerate(values) if x == value]
                for i in positions:
                    rebuilt[i] = value
            assert rebuilt == values
            inverted += 1
        assert inverted == 100
        info["note"] = "widths exact for k=1..10; 100 random inverses"
