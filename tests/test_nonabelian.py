"""Non-abelian isotropy: S3 and Q8 against their closed-form group homology.

The groupoids are built here from multiplication tables, with no code of
the package: S3 from permutations of three points and Q8 from the rule
i² = j² = k² = ijk = -1.  Each is relabelled at two seeds.  The cyclic
presets have abelian isotropy only, so these are the inputs on which
H_1 = G_ab, the periodic H_3 = Z/|G| and multi-generator torsion nodes such
as (Z/2)⁴ in the Mayer–Vietoris sequence are checked.
"""

import itertools
import json
import random

import pytest

from test_cli import run_cli

SEEDS = (1, 2)


def s3_table() -> list[list[int]]:
    perms = list(itertools.permutations(range(3)))
    return [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms] for p in perms]


def q8_table() -> list[list[int]]:
    # (sign, unit) with unit 0..3 for 1, i, j, k: ij = k, jk = i, ki = j, and the reverse products negated
    elements = [(s, u) for s in (1, -1) for u in range(4)]

    def mul(a, b):
        (s, u), (t, v) = a, b
        if not u or not v:
            return s * t, u or v
        if u == v:
            return -s * t, 0
        return (s * t if (v - u) % 3 == 1 else -s * t), 6 - u - v

    return [[elements.index(mul(a, b)) for b in elements] for a in elements]


def cyclic_table(m: int) -> list[list[int]]:
    return [[(a + b) % m for b in range(m)] for a in range(m)]


def groupoid_file(tmp_path, tables, seed: int) -> tuple[str, list[int]]:
    """The file of the disjoint union of the groups, one object each, arrows
    renumbered by a seeded permutation; also each group's unit position."""
    source, inverse, compose, units = [], [], [], []
    off = 0
    for t in tables:
        n = len(t)
        e = next(a for a in range(n) if t[a] == list(range(n)))
        units.append(off + e)
        for a in range(n):
            source.append(off + e)
            inverse.append(off + t[a].index(e))
            compose += [[off + a, off + b, off + t[a][b]] for b in range(n)]
        off += n
    new = list(range(off))
    random.Random(seed).shuffle(new)
    old = sorted(range(off), key=new.__getitem__)
    data = {
        "arrows": off,
        "units": sorted(new[u] for u in units),
        "source": [new[source[a]] for a in old],
        "range": [new[source[a]] for a in old],
        "inverse": [new[inverse[a]] for a in old],
        "compose": sorted([new[x] for x in c] for c in compose),
    }
    path = tmp_path / f"groupoid-{seed}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path), [data["units"].index(new[u]) for u in units]


def homology_lines(out: str) -> list[str]:
    return [line.split(" = ", 1)[1] for line in out.splitlines()[1:]]


@pytest.mark.parametrize("seed", SEEDS)
def test_homology_of_s3(tmp_path, seed):
    path, _ = groupoid_file(tmp_path, [s3_table()], seed)
    code, out, err = run_cli(["homology", "-i", path, "-N", "6"])
    assert (code, err) == (0, "")
    assert homology_lines(out) == ["Z", "Z/2", "0", "Z/6", "0", "Z/2"]


@pytest.mark.parametrize("seed", SEEDS)
def test_homology_of_q8(tmp_path, seed):
    path, _ = groupoid_file(tmp_path, [q8_table()], seed)
    code, out, err = run_cli(["homology", "-i", path, "-N", "5"])
    assert (code, err) == (0, "")
    assert homology_lines(out) == ["Z", "Z/2 ⊕ Z/2", "0", "Z/8", "0"]


@pytest.mark.parametrize("seed", SEEDS)
def test_uct_of_q8_mod_4(tmp_path, seed):
    path, _ = groupoid_file(tmp_path, [q8_table()], seed)
    code, out, err = run_cli(["uct", "-i", path, "-N", "5", "--coeff", "z/4"])
    assert (code, err) == (0, "")
    degrees = [line for line in out.splitlines() if line.startswith("  degree ")]
    assert len(degrees) == 5 and all(line.endswith("match=true") for line in degrees)
    assert out.endswith("all degrees match: true\n")


@pytest.mark.parametrize("seed", SEEDS)
def test_mayer_vietoris_on_q8_and_cyclic_2(tmp_path, seed):
    # U1 is both orbits, U2 and U12 the cyclic:2 one, so the pair node in
    # degree 1 is (Z/2)² ⊕ Z/2 ⊕ Z/2: several torsion generators of one order
    path, (_, c2_unit) = groupoid_file(tmp_path, [q8_table(), cyclic_table(2)], seed)
    report = tmp_path / "mv.json"
    code, out, err = run_cli(["mv", "-i", path, "-N", "4", "--u1", "0,1", "--u2", str(c2_unit),
                              "--json", str(report)])
    assert (code, err) == (0, "")
    assert out.endswith("all nodes exact: true\n")
    # (rank, torsion) per degree; all torsion is 2-primary, so the sorted
    # orders are the invariant factors
    q8 = [(1, []), (0, [2, 2]), (0, []), (0, [8])]
    c2 = [(1, []), (0, [2]), (0, []), (0, [2])]
    expected = []
    for n in range(3, -1, -1):
        both = (q8[n][0] + c2[n][0], q8[n][1] + c2[n][1])
        expected += [c2[n], (both[0] + c2[n][0], both[1] + c2[n][1]), both]
    expected.append((0, []))
    data = json.loads(report.read_text(encoding="utf-8"))
    got = [(node["group"]["rank"], sorted(node["group"]["torsion"])) for node in data["nodes"]]
    assert got == [(rank, sorted(torsion)) for rank, torsion in expected]
    assert all(e["exact"] for e in data["exactness"]) and data["ok"]
