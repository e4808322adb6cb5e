"""Universal-coefficient machinery: assemble H_n(G;A) from integral homology,
cross-validate against directly computed coefficient homology, check the
mod-q reduction map on representatives, and demonstrate why discreteness of
the coefficients matters (the Cantor-function obstruction).

The short exact sequence 0 → H_n⊗A →κ H_n(;A) → Tor(H_{n-1},A) → 0 splits, so
iso types can be compared by assembling the two outer terms.  The splitting
itself is never constructed.  For A = Z/q, `mod_reduction_check` builds κ on
representatives as a `GroupHom`, checks that it is well defined and injective,
and checks the order equation.  The direct side never
uses the tensor/Tor formula: each H_n(;Z/d) is read at the chain level off the
invariant factors of the mapping cone of d (`chains.homology_groups`), so a
match compares two independent routes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .abelian import (
    FinAbGroup, GroupHom, PresentedGroup, direct_sum, middle_homology, tensor, tor1,
)
from .chains import FreeChainComplex, homology_groups, homology_mod, homology_results
from .groupoids import DEFAULT_BUDGET, FiniteGroupoid, isotropy_groups, moore_complex, nerve_dims


@dataclass
class UctReport:
    """One degree of the universal-coefficient comparison."""

    degree: int
    integral_n: FinAbGroup
    integral_nminus1: FinAbGroup
    coefficient: FinAbGroup
    tensor_part: FinAbGroup
    tor_part: FinAbGroup
    assembled: FinAbGroup
    direct: FinAbGroup
    match: bool

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "integral_n": self.integral_n.to_json(),
            "integral_n_minus_1": self.integral_nminus1.to_json(),
            "coefficient": self.coefficient.to_json(),
            "tensor_part": self.tensor_part.to_json(),
            "tor_part": self.tor_part.to_json(),
            "assembled": self.assembled.to_json(),
            "direct": self.direct.to_json(),
            "match": self.match,
        }


def uct_assemble(
    hn: FinAbGroup, hn_1: FinAbGroup, coefficients: FinAbGroup
) -> tuple[FinAbGroup, FinAbGroup, FinAbGroup]:
    """(tensor part, Tor part, their direct sum) for one degree.

    `hn_1` is the integral homology one degree below; for degree 0 pass the
    trivial group.
    """
    tensor_part = tensor(hn, coefficients)
    tor_part = tor1(hn_1, coefficients)
    return tensor_part, tor_part, tensor_part.direct_sum(tor_part)


def coefficient_homology(complex_: FreeChainComplex, coefficients: FinAbGroup) -> list[FinAbGroup]:
    """H_n of the complex with a finitely generated coefficient group, every trusted degree.

    Decomposes A = Z^r ⊕ ⊕ Z/d and sums H_n(;Z)^r with the mod-d homologies,
    each the invariant factors of the mapping cone of d on the complex, one
    sweep per distinct modulus; this is a chain-level computation, not the
    universal-coefficient formula, so it is fair to cross-validate the latter
    against it.
    """
    return _coefficient_sums(complex_, [coefficients])[0]


def _coefficient_sums(complex_: FreeChainComplex,
                      coefficient_groups: Sequence[FinAbGroup]) -> list[list[FinAbGroup]]:
    """`coefficient_homology` for each group, with one sweep per modulus that any group
    needs (0 for a free summand)."""
    moduli = [[0] * a.rank + list(a.torsion) for a in coefficient_groups]
    sweeps = {q: homology_groups(complex_, q) for q in sorted(set().union(*moduli))}
    return [[direct_sum([sweeps[q][n] for q in qs]) for n in range(complex_.max_degree)] for qs in moduli]


def isotropy_homology(groupoid: FiniteGroupoid, max_degree: int, budget: int | None,
                      *coefficient_groups: FinAbGroup) -> list[list[FinAbGroup]]:
    """Per coefficient group, `coefficient_homology` of the groupoid as the degree-wise
    direct sum over `isotropy_groups`, one Moore complex each, swept once per modulus.
    The caller checks the budget on the full nerve (`nerve_dims`), no smaller than these
    nerves together."""
    by_group = [_coefficient_sums(c, coefficient_groups)
                for c in (moore_complex(h, max_degree, budget=budget) for h in isotropy_groups(groupoid))]
    return [[direct_sum(degree) for degree in zip(*sums)] for sums in zip(*by_group)]


def uct_verify(
    groupoid: FiniteGroupoid,
    coefficients: FinAbGroup,
    max_degree: int,
    budget: int | None = DEFAULT_BUDGET,
) -> list[UctReport]:
    """Universal-coefficient comparison for every trusted degree 0..N-1, on `isotropy_homology`."""
    nerve_dims(groupoid, max_degree, budget)  # the budget counts the full nerve
    integral, direct = isotropy_homology(groupoid, max_degree, budget, FinAbGroup.free(1), coefficients)
    reports = []
    for n in range(max_degree):
        below = integral[n - 1] if n >= 1 else FinAbGroup.trivial()
        tensor_part, tor_part, assembled = uct_assemble(integral[n], below, coefficients)
        reports.append(
            UctReport(
                degree=n,
                integral_n=integral[n],
                integral_nminus1=below,
                coefficient=coefficients,
                tensor_part=tensor_part,
                tor_part=tor_part,
                assembled=assembled,
                direct=direct[n],
                match=assembled == direct[n],
            )
        )
    return reports


@dataclass
class ModReductionReport:
    """Outcome of the representative-level mod-q reduction check."""

    degree: int
    modulus: int
    integral: FinAbGroup
    direct: FinAbGroup
    image: FinAbGroup
    tensor_part: FinAbGroup
    tor_part: FinAbGroup


def mod_reduction_check(
    groupoid: FiniteGroupoid,
    q: int,
    n: int,
    seed: int = 0,
    budget: int | None = DEFAULT_BUDGET,
) -> ModReductionReport:
    """Check the reduction map κ: H_n(;Z) ⊗ Z/q → H_n(;Z/q) on representatives.

    Every integral cycle representative is reduced mod q and located in
    H_n(;Z/q); well-definedness on chains is probed by re-running on a
    boundary-shifted and a q-shifted representative.  The images are the
    columns of κ as a `GroupHom` from the diagonal presentation of H_n ⊗ Z/q
    (orders gcd(d, q), with gcd(0, q) = q), whose constructor checks that κ
    respects those relations; κ must then be injective, so its image is
    H_n ⊗ Z/q, and |H_n(;Z/q)| = |H_n ⊗ Z/q|·|Tor(H_{n-1}, Z/q)|.
    """
    if q < 1:
        raise ValueError("modulus must be >= 1")
    complex_ = moore_complex(groupoid, n + 1, budget=budget)
    results = homology_results(complex_, 0, n)
    integral = results[n]
    modular = homology_mod(complex_, q, n)
    rng = random.Random(seed)
    following = complex_.boundaries[n + 1]
    dim_above = complex_.dims[n + 1]
    images = []
    for z in integral.cycle_reps:
        coords = modular.class_coords(z)
        # well-definedness probes: shift by an integral boundary and by q
        shift = following.mul_vector([rng.randint(-2, 2) for _ in range(dim_above)])
        shifted = [a + b for a, b in zip(z, shift)]
        if modular.class_coords(shifted) != coords:
            raise ValueError(f"reduction map image mismatch: boundary shift moved the class of {z}")
        scaled = [a + q * rng.randint(-2, 2) for a in z]
        if modular.class_coords(scaled) != coords:
            raise ValueError(f"reduction map image mismatch: mod-q shift moved the class of {z}")
        images.append(coords)
    source = PresentedGroup.from_diagonal([math.gcd(d, q) for d in integral.presentation.orders])
    try:
        kappa = GroupHom.from_columns(source, modular.presentation, images)
    except ValueError:
        raise ValueError(f"reduction map image mismatch: κ is not well defined on H_{n} ⊗ Z/{q} "
                         f"with orders {source.orders}: images {images}") from None
    kernel = middle_homology(GroupHom.zero(PresentedGroup.trivial(), source), kappa)
    if not kernel.is_trivial():
        raise ValueError(
            f"reduction map image mismatch: κ has kernel {kernel} on H_{n} ⊗ Z/{q}: "
            f"representatives {integral.cycle_reps} map to {images}"
        )
    below = results[n - 1].group if n >= 1 else FinAbGroup.trivial()
    tensor_part, tor_part, _ = uct_assemble(integral.group, below, FinAbGroup.cyclic(q))
    image = source.group()
    direct = modular.group
    if direct.order() != image.order() * tor_part.order():
        raise ValueError(
            f"reduction map image mismatch: order equation {direct.order()} != "
            f"{image.order()} * {tor_part.order()}"
        )
    return ModReductionReport(
        degree=n,
        modulus=q,
        integral=integral.group,
        direct=direct,
        image=image,
        tensor_part=tensor_part,
        tor_part=tor_part,
    )


@dataclass
class CylinderRange:
    """Exact value range of the binary-digit sum over one level-k cylinder."""

    prefix: tuple[int, ...]
    low: Fraction
    high: Fraction

    @property
    def width(self) -> Fraction:
        return self.high - self.low


@dataclass
class CantorReport:
    level: int
    cylinders: list[CylinderRange]

    @property
    def all_widths_positive(self) -> bool:
        return all(c.width > 0 for c in self.cylinders)

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "cylinders": [
                {
                    "prefix": list(c.prefix),
                    "low": str(c.low),
                    "high": str(c.high),
                    "width": str(c.width),
                }
                for c in self.cylinders
            ],
        }


def cantor_obstruction(level: int) -> CantorReport:
    """Exact cylinder ranges of x ↦ Σ 2^{-i} x_i on {0,1}^∞, at one level.

    On the cylinder fixing the first k binary digits the value runs over
    [base, base + 2^{-k}] exactly, so the function is constant on no cylinder:
    with real coefficients no finite sum of characteristic functions can
    represent it, which is the finite-precision form of the obstruction.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    out = []
    tail = Fraction(1, 2**level)  # Σ_{i > k} 2^{-i}
    for index in range(2**level):
        prefix = tuple((index >> (level - 1 - i)) & 1 for i in range(level))
        base = Fraction(index, 2**level)
        out.append(CylinderRange(prefix=prefix, low=base, high=base + tail))
    return CantorReport(level=level, cylinders=out)


def decompose_step_function(values: Sequence[int]) -> list[tuple[int, list[int]]]:
    """Write a level-k step function as a sum of value-weighted indicators.

    `values[c]` is the (integer, i.e. discrete-group) value on cylinder c; the
    result pairs each distinct nonzero value with the cylinders carrying it —
    exactly the finite decomposition available for discrete coefficients and
    impossible for the digit-sum function with real ones.
    """
    groups: dict[int, list[int]] = {}
    for c, v in enumerate(values):
        if v != 0:
            groups.setdefault(v, []).append(c)
    decomposition = sorted(groups.items())
    # verify reconstruction exactly
    rebuilt = [0] * len(values)
    for value, cylinders in decomposition:
        for c in cylinders:
            rebuilt[c] += value
    if rebuilt != list(values):
        raise AssertionError("step-function decomposition failed to reconstruct")
    return decomposition
