"""Seeded inputs, job lists and closed-form answers for the benchmark workloads.

Nothing here imports the package.  Groupoids are built as plain JSON dicts in
the package's file format, relabelled by a seeded permutation of the arrow
indices, and every expected homology group comes from a closed form over the
orbits:

* an orbit with isotropy group Z/k contributes Z in degree 0, Z/k in odd
  degrees and 0 in even degrees >= 2 (with Z coefficients);
* with Z/q coefficients it contributes Z/q in degree 0 and Z/gcd(k, q) in
  every degree >= 1;
* mixed coefficients Z^r + Z/q1 + ... sum the parts, and disjoint unions sum
  over their orbits.

Relabelling changes the nerve order and the pivot order of every elimination,
never the answer.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# -- groupoid shapes -----------------------------------------------------------


@dataclass(frozen=True)
class Part:
    """One preset: `cyclic` (m), `pair` (k), `units` (k) or `action` (m, perm)."""

    kind: str
    m: int
    perm: tuple[int, ...] = ()

    @property
    def name(self) -> str:
        if self.kind == "action":
            return f"action:{self.m}:{','.join(map(str, self.perm))}"
        return f"{self.kind}:{self.m}"

    def isotropy(self) -> list[int]:
        """Order of the (cyclic) isotropy group of each orbit of the preset."""
        if self.kind == "cyclic":
            return [self.m]
        if self.kind == "pair":
            return [1]
        if self.kind == "units":
            return [1] * self.m
        return [self.m // len(cycle) for cycle in _cycles(self.perm)]

    def build(self) -> dict:
        """The preset in the package's JSON file format."""
        if self.kind == "cyclic":
            m = self.m
            return _groupoid(
                m, [0], [0] * m, [0] * m, [(-i) % m for i in range(m)],
                [(i, j, (i + j) % m) for i in range(m) for j in range(m)],
            )
        if self.kind == "units":
            k = list(range(self.m))
            return _groupoid(self.m, k, k, k, k, [(u, u, u) for u in k])
        if self.kind == "pair":
            k = self.m
            arrows = [(a, b) for a in range(k) for b in range(k)]  # b -> a, index a*k+b
            return _groupoid(
                k * k,
                [a * k + a for a in range(k)],
                [b * k + b for a, b in arrows],
                [a * k + a for a, b in arrows],
                [b * k + a for a, b in arrows],
                [(a * k + b, b * k + c, a * k + c)
                 for a in range(k) for b in range(k) for c in range(k)],
            )
        # action of Z/m on points by perm: arrow x*m + j runs from x to perm^j(x)
        m, perm, p = self.m, self.perm, len(self.perm)
        powers = [list(range(p))]
        for _ in range(m - 1):
            powers.append([perm[x] for x in powers[-1]])
        if [perm[x] for x in powers[-1]] != list(range(p)):
            raise ValueError(f"{self.name}: permutation order does not divide m")
        source, range_, inverse, compose = [], [], [], []
        for x in range(p):
            for j in range(m):
                y = powers[j][x]
                source.append(x * m)
                range_.append(y * m)
                inverse.append(y * m + (-j) % m)
                for j2 in range(m):
                    compose.append((y * m + j2, x * m + j, x * m + (j + j2) % m))
        return _groupoid(p * m, [x * m for x in range(p)], source, range_, inverse, compose)


def _cycles(perm: tuple[int, ...]) -> list[list[int]]:
    seen, out = set(), []
    for start in range(len(perm)):
        if start not in seen:
            cycle, x = [], start
            while x not in seen:
                seen.add(x)
                cycle.append(x)
                x = perm[x]
            out.append(cycle)
    return out


def _groupoid(arrows, units, source, range_, inverse, compose) -> dict:
    return {
        "arrows": arrows,
        "units": list(units),
        "source": list(source),
        "range": list(range_),
        "inverse": list(inverse),
        "compose": [list(t) for t in compose],
    }


def union(parts: tuple[Part, ...]) -> tuple[dict, list[int]]:
    """Disjoint union of the parts, and the part index of every arrow."""
    out = _groupoid(0, [], [], [], [], [])
    owner: list[int] = []
    for index, part in enumerate(parts):
        g, off = part.build(), out["arrows"]
        out["arrows"] += g["arrows"]
        for key in ("units", "source", "range", "inverse"):
            out[key] += [x + off for x in g[key]]
        out["compose"] += [[x + off for x in t] for t in g["compose"]]
        owner += [index] * g["arrows"]
    return out, owner


def relabel(g: dict, rng: random.Random) -> tuple[dict, list[int]]:
    """Apply a seeded permutation to the arrow indices; return it with the result."""
    k = g["arrows"]
    new = list(range(k))
    rng.shuffle(new)
    out = {"arrows": k, "units": sorted(new[u] for u in g["units"])}
    for key in ("source", "range", "inverse"):
        values = [0] * k
        for a in range(k):
            values[new[a]] = new[g[key][a]]
        out[key] = values
    out["compose"] = sorted([new[x] for x in t] for t in g["compose"])
    return out, new


def orbits(g: dict) -> list[tuple[int, ...]]:
    """Unit orbits by union-find over the arrows, each sorted, in sorted order."""
    parent = {u: u for u in g["units"]}

    def find(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for s, r in zip(g["source"], g["range"]):
        parent[find(s)] = find(r)
    groups: dict[int, list[int]] = {}
    for u in g["units"]:
        groups.setdefault(find(u), []).append(u)
    return sorted(tuple(sorted(v)) for v in groups.values())


# -- closed forms ----------------------------------------------------------------

# A group is (rank, sorted prime-power cyclic orders): equal exactly when
# the groups are isomorphic, and independent of how the program renders it.
Group = tuple[int, tuple[int, ...]]


def prime_powers(d: int) -> list[int]:
    out, p = [], 2
    while p * p <= d:
        if d % p == 0:
            q = 1
            while d % p == 0:
                d //= p
                q *= p
            out.append(q)
        p += 1
    if d > 1:
        out.append(d)
    return out


def group(orders: list[int]) -> Group:
    """Direct sum of Z/d over the orders, 0 meaning Z and 1 meaning 0."""
    rank = sum(1 for d in orders if d == 0)
    return rank, tuple(sorted(q for d in orders if d > 1 for q in prime_powers(d)))


def parse_coeff(text: str) -> tuple[int, list[int]]:
    """`z`, `z/q` or `z^r+z/q+...` as (free rank, torsion moduli)."""
    rank, torsion = 0, []
    for term in text.split("+"):
        if term == "z":
            rank += 1
        elif term.startswith("z^"):
            rank += int(term[2:])
        else:
            torsion.append(int(term[2:]))
    return rank, torsion


def orbit_homology(k: int, n: int, coeff: str) -> list[int]:
    """Cyclic orders of H_n of a one-orbit groupoid with isotropy Z/k."""
    rank, torsion = parse_coeff(coeff)
    integral = [0] if n == 0 else ([k] if n % 2 else [])
    return integral * rank + [q if n == 0 else math.gcd(k, q) for q in torsion]


def homology(isotropy: list[int], n: int, coeff: str = "z") -> Group:
    return group([d for k in isotropy for d in orbit_homology(k, n, coeff)])


def parse_group(text: str) -> Group:
    """Read the program's rendering `Z^r ⊕ Z/d ⊕ ...` (or `0`) as a Group."""
    orders: list[int] = []
    if text != "0":
        for term in text.split(" ⊕ "):
            if term == "Z":
                orders.append(0)
            elif term.startswith("Z^"):
                orders += [0] * int(term[2:])
            elif term.startswith("Z/"):
                orders.append(int(term[2:]))
            else:
                raise ValueError(f"unreadable group term {term!r}")
    return group(orders)


# -- jobs -------------------------------------------------------------------------


@dataclass(frozen=True)
class JobSpec:
    """One CLI call shape: subcommand, groupoid parts, truncation, coefficients."""

    command: str  # "homology", "uct" or "mv"
    parts: tuple[Part, ...]
    max_degree: int
    coeff: str = "z"

    @property
    def label(self) -> str:
        shape = "+".join(p.name for p in self.parts)
        coeff = "" if self.command == "mv" else f" --coeff {self.coeff}"
        return f"{self.command} {shape} -N {self.max_degree}{coeff}"


@dataclass
class Job:
    """A generated job: the argv the program gets and the answer it must give."""

    spec: JobSpec
    argv: list[str]
    expected: list  # per command; see expected_answer


def cyc(m: int) -> Part:
    return Part("cyclic", m)


def pr(k: int) -> Part:
    return Part("pair", k)


def unit() -> Part:
    return Part("units", 1)


def act(m: int, *perm: int) -> Part:
    return Part("action", m, perm)


def _n(copies: int, spec: JobSpec) -> list[JobSpec]:
    return [spec] * copies


# One pass of each workload.  Copies of a spec get separate relabellings.
# Every job takes about 0.03-1 s on an idle 2-core x86 box and a pass about
# 3.5-4.5 s, so a 40 s run makes 4-8 passes.  A relabelling moves one job's
# time by up to 20%, so the copy counts put the median and the 90th
# percentile of the job times inside a block of several jobs of similar size,
# never on a gap between two sizes or on a single job.
WORKLOADS: dict[str, list[JobSpec]] = {
    "z-nerve": [
        *_n(5, JobSpec("homology", (cyc(8),), 3)),
        *_n(5, JobSpec("homology", (pr(4),), 3)),
        *_n(4, JobSpec("homology", (cyc(9),), 3)),
        *_n(12, JobSpec("homology", (cyc(10),), 3)),  # median: the 20th-21st of 40
        *_n(2, JobSpec("homology", (cyc(5),), 4)),
        *_n(2, JobSpec("homology", (pr(5),), 3)),
        *_n(2, JobSpec("homology", (act(4, 1, 0),), 4)),
        *_n(6, JobSpec("homology", (cyc(11),), 3)),  # 90th percentile: the 37th
        JobSpec("homology", (cyc(12),), 3),
        JobSpec("homology", (act(6, 1, 0, 3, 2, 5, 4),), 3),
    ],
    # median: the 15th-16th of 30, amid the seven `homology cyclic:6 --coeff z/4`
    # (about 0.1 s) that sit between the twelve smaller and the eleven larger jobs
    "coeff-uct": [
        JobSpec(command, (shape,), n, coeff)
        for shape, n in ((cyc(4), 4), (cyc(5), 3), (cyc(6), 3), (act(4, 1, 0), 3))
        for command, coeff in (
            ("uct", "z/2"), ("uct", "z/4"),
            ("homology", "z/2"), ("homology", "z/4"),
            ("homology", "z^1+z/2"), ("homology", "z^1+z/4"),
        )
    ] + _n(6, JobSpec("homology", (cyc(6),), 3, "z/4")),
    "mv-cover": [
        *_n(3, JobSpec("mv", (cyc(3), cyc(2), cyc(4)), 3)),
        *_n(3, JobSpec("mv", (act(3, 1, 2, 0), unit(), pr(2)), 3)),
        *_n(3, JobSpec("mv", (cyc(2), unit(), cyc(3)), 4)),
        *_n(11, JobSpec("mv", (pr(2), cyc(2), pr(3)), 3)),  # median: the 15th-16th of 30
        *_n(5, JobSpec("mv", (act(4, 1, 0), unit(), pr(3)), 3)),  # 90th percentile:
        *_n(4, JobSpec("mv", (cyc(6), cyc(2), unit()), 3)),  # the 28th
        JobSpec("mv", (cyc(4), pr(2), cyc(6)), 3),
    ],
}


def make_job(spec: JobSpec, rng: random.Random, path: Path) -> Job:
    """Relabel the spec's groupoid, write it to `path`, and form argv and answer."""
    g, owner = union(spec.parts)
    g, new = relabel(g, rng)
    path.write_text(json.dumps(g, sort_keys=True) + "\n", encoding="utf-8")
    argv = [spec.command, "-i", str(path), "-N", str(spec.max_degree)]
    if spec.command != "mv":
        return Job(spec, argv + ["--coeff", spec.coeff], expected_answer(spec))
    # Cover U1 = parts 0 and 1, U2 = parts 1 and 2.  Each part is one orbit;
    # the orbits are found again by union-find on the relabelled file, so the
    # cover is saturated whatever the labels.
    part_of = [0] * g["arrows"]
    for a, p in enumerate(owner):
        part_of[new[a]] = p
    orbs = orbits(g)
    by_part = {part_of[o[0]]: o for o in orbs}
    if len(orbs) != 3 or len(by_part) != 3 or any(len({part_of[u] for u in o}) > 1 for o in orbs):
        raise ValueError(f"{spec.label}: every cover part must be exactly one orbit")
    position = {u: i for i, u in enumerate(g["units"])}
    u1 = sorted(position[u] for u in by_part[0] + by_part[1])
    u2 = sorted(position[u] for u in by_part[1] + by_part[2])
    argv += ["--u1", ",".join(map(str, u1)), "--u2", ",".join(map(str, u2)),
             "--seed", str(rng.randrange(10**6))]
    return Job(spec, argv, expected_answer(spec))


def expected_answer(spec: JobSpec) -> list:
    """homology/uct: H_n per degree; mv: (label, group) for every node."""
    n_max = spec.max_degree
    if spec.command != "mv":
        isotropy = [k for p in spec.parts for k in p.isotropy()]
        return [homology(isotropy, n, spec.coeff) for n in range(n_max)]
    (o0,), (o1,), (o2,) = (p.isotropy() for p in spec.parts)
    nodes = []
    for n in range(n_max - 1, -1, -1):
        nodes += [
            (f"H_{n}(G|U12)", homology([o1], n)),
            (f"H_{n}(G|U1) ⊕ H_{n}(G|U2)", homology([o0, o1, o1, o2], n)),
            (f"H_{n}(G)", homology([o0, o1, o2], n)),
        ]
    return nodes + [("0", group([]))]


def make_jobs(workload: str, seed: int, directory: Path) -> list[Job]:
    """One pass of the workload: every input file written, every answer known."""
    rng = random.Random(seed)
    return [
        make_job(spec, rng, directory / f"job{i:02d}.json")
        for i, spec in enumerate(WORKLOADS[workload])
    ]


# -- checking one job's output ----------------------------------------------------


def check(job: Job, code: int, stdout: str) -> str | None:
    """None when the output matches the closed form, else the first mismatch."""
    if code != 0:
        return f"exit code {code}"
    lines = stdout.splitlines()
    command, expected = job.spec.command, job.expected
    if command == "homology":
        found = [ln.partition(" = ")[2] for ln in lines if ln.startswith("  H_")]
        return _compare(found, expected)
    if command == "uct":
        if lines[-1:] != ["all degrees match: true"]:
            return "uct verdict is not 'all degrees match: true'"
        found = [
            ln.split("; ")[1].removeprefix("direct ")
            for ln in lines if ln.startswith("  degree ")
        ]
        return _compare(found, expected)
    if lines[-1:] != ["all nodes exact: true"]:
        return "mv verdict is not 'all nodes exact: true'"
    if any("FAILED" in ln for ln in lines):
        return "a connecting check FAILED"
    nodes = [ln[len("  node "):].rpartition(" = ") for ln in lines if ln.startswith("  node ")]
    labels = [label for label, _, _ in nodes]
    if labels != [label for label, _ in expected]:
        return f"mv nodes {labels} != {[label for label, _ in expected]}"
    return _compare([text for _, _, text in nodes], [grp for _, grp in expected])


def _compare(found: list[str], expected: list[Group]) -> str | None:
    if len(found) != len(expected):
        return f"{len(found)} groups printed, {len(expected)} expected"
    for n, (text, want) in enumerate(zip(found, expected)):
        if parse_group(text) != want:
            return f"group {n}: printed {text!r}, closed form {want}"
    return None
