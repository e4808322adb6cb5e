"""Size ladder: wall time and peak RSS of the CLI on growing inputs, per checkout.

Run from the root of a checkout, naming each checkout to measure:

    python3 tools/ladder.py parent=../parent change=. -o BENCH_ladder.json

Each rung runs `python -m groupoid_homology ...` with the named checkout's
src/ on PYTHONPATH, in a child process limited to 2 GiB of address space
(RLIMIT_AS), REPEATS times per side, the sides taking turns.  For each run it
records the wall time, the child's own peak RSS (from os.wait4), the exit
code, the sha256 of stdout and of stderr, and the first line of stderr; for
each side it reports the min and the median of the wall times and of the
peak RSS, since single runs on a shared host spread by 20-40%.  The inputs are written once, by the first side's
`groupoid-homology gen`, into a temporary directory that is every child's
working directory, so every side reads the same files by the same name.
The first three `mv` rungs cover a three-orbit union, cyclic:12 ⊔ pair:3 ⊔ cyclic:8,
cyclic:30 ⊔ pair:3 ⊔ cyclic:8 and cyclic:20 ⊔ pair:4 ⊔ cyclic:16, by its first
two and its last two orbits, so the intersection is the pair groupoid; the
cyclic:30 one puts the representatives (the lattice stage of
`homology_results`, then a Smith form and U⁻¹ product per part and degree)
on a 27000-column top boundary, reduced once, in the ambient complex.
`mv cyclic:60 + cyclic:2 -N 3`, covered by both orbits and by the cyclic:2
one, puts them on a 216008-column top boundary.  `homology pair:8 -N 4` is a
multi-unit orbit whose answer is a
point, and `uct pair:10 -N 4 --coeff z/4` one whose full nerve has 111110
basis elements, under the default budget, while both sides of the check
are computed on its trivial isotropy group.
`homology cyclic:99 -N 3` has 980200 basis elements, the largest cyclic
nerve under the default budget of 10^6.  The 100- and 200-orbit rungs are
unions of twenty and forty copies each of cyclic:2 to cyclic:6: every orbit
is one unit, so it is swept as one complex, and each orbit hands one
non-unit row to one Smith form, whose rows share no column.  `mv` on
forty-five such orbits, nine copies each, relabelled at seed 1 (`relabel`,
after the `gen` inputs) and covered by the first 27 and the last 27 unit
positions, puts one generator per orbit into every node of the long exact
sequence.  The last rung
is over the default nerve budget and must be refused with exit 1 and the
CLI's budget message, so a crash (say a MemoryError under the limit, also
exit 1) does not pass for a refusal.  A rung whose exit code or stderr start is not the expected
one in some run, or whose stdout or stderr differs between runs or sides,
is flagged in the report and makes the tool exit 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

LIMIT_AS = 2 << 30
REPEATS = 3  # runs per rung and side
# input file stem -> `gen` preset, in order: a union reads files written before it
INPUTS = {
    "cyclic-8": "cyclic:8", "cyclic-12": "cyclic:12", "cyclic-30": "cyclic:30",
    "cyclic-60": "cyclic:60", "cyclic-99": "cyclic:99", "pair-3": "pair:3",
    "mv-union": "union:cyclic-12.json,pair-3.json,cyclic-8.json",
    "mv-union-30": "union:cyclic-30.json,pair-3.json,cyclic-8.json", "pair-8": "pair:8",
    "pair-10": "pair:10",
    "cyclic-16": "cyclic:16", "cyclic-20": "cyclic:20", "pair-4": "pair:4",
    "mv-union-large": "union:cyclic-20.json,pair-4.json,cyclic-16.json",
    "cyclic-2": "cyclic:2", "mv-union-60": "union:cyclic-60.json,cyclic-2.json",
    "cyclic-3": "cyclic:3", "cyclic-4": "cyclic:4", "cyclic-5": "cyclic:5", "cyclic-6": "cyclic:6",
    "union-100": "union:" + ",".join(f"cyclic-{2 + i % 5}.json" for i in range(100)),
    "union-200": "union:" + ",".join(f"cyclic-{2 + i % 5}.json" for i in range(200)),
    "union-45": "union:" + ",".join(f"cyclic-{2 + i % 5}.json" for i in range(45)),
}
# relabelled input stem -> (input stem, seed), written after INPUTS
RELABELLED = {"union-45-seed-1": ("union-45", 1)}
REFUSED = "error: nerve budget exceeded at degree"
MV_COVER = ["--u1", "0,1,2,3", "--u2", "1,2,3,4"]  # unit positions: cyclic:12 (or 30) is 0, cyclic:8 is 4
MV_COVER_LARGE = ["--u1", "0,1,2,3,4", "--u2", "1,2,3,4,5"]  # cyclic:20 is 0, cyclic:16 is 5
MV_COVER_60 = ["--u1", "0,1", "--u2", "1"]  # cyclic:60 is 0, cyclic:2 is 1
MV_COVER_45 = ["--u1", ",".join(map(str, range(27))), "--u2", ",".join(map(str, range(18, 45)))]
# (name, CLI arguments after `-i <input>`, input stem, expected exit code, expected stderr start)
RUNGS = [
    ("homology cyclic:30 -N 3", ["homology", "-N", "3"], "cyclic-30", 0, ""),
    ("homology cyclic:60 -N 3", ["homology", "-N", "3"], "cyclic-60", 0, ""),
    ("homology cyclic:99 -N 3", ["homology", "-N", "3"], "cyclic-99", 0, ""),
    ("homology cyclic:8 -N 4", ["homology", "-N", "4"], "cyclic-8", 0, ""),
    ("homology pair:8 -N 4", ["homology", "-N", "4"], "pair-8", 0, ""),
    ("homology cyclic:8 -N 4 --coeff z/4", ["homology", "-N", "4", "--coeff", "z/4"], "cyclic-8", 0, ""),
    ("uct cyclic:30 -N 3 --coeff z/4", ["uct", "-N", "3", "--coeff", "z/4"], "cyclic-30", 0, ""),
    ("uct pair:10 -N 4 --coeff z/4", ["uct", "-N", "4", "--coeff", "z/4"], "pair-10", 0, ""),
    ("mv cyclic:12 + pair:3 + cyclic:8 -N 3", ["mv", "-N", "3", *MV_COVER], "mv-union", 0, ""),
    ("mv cyclic:30 + pair:3 + cyclic:8 -N 3", ["mv", "-N", "3", *MV_COVER], "mv-union-30", 0, ""),
    ("mv cyclic:20 + pair:4 + cyclic:16 -N 3", ["mv", "-N", "3", *MV_COVER_LARGE], "mv-union-large", 0, ""),
    ("mv cyclic:60 + cyclic:2 -N 3", ["mv", "-N", "3", *MV_COVER_60], "mv-union-60", 0, ""),
    ("mv 45 orbits cyclic:2..6 -N 3", ["mv", "-N", "3", *MV_COVER_45], "union-45-seed-1", 0, ""),
    ("homology 100 orbits cyclic:2..6 -N 2", ["homology", "-N", "2"], "union-100", 0, ""),
    ("homology 200 orbits cyclic:2..6 -N 2", ["homology", "-N", "2"], "union-200", 0, ""),
    ("homology cyclic:60 -N 4 (over budget)", ["homology", "-N", "4"], "cyclic-60", 1, REFUSED),
]


def relabel(data: dict, seed: int) -> dict:
    """The groupoid file `data` with its arrows renumbered by a seeded permutation."""
    new = list(range(data["arrows"]))
    random.Random(seed).shuffle(new)
    out = {"arrows": data["arrows"], "units": sorted(new[u] for u in data["units"])}
    for key in ("source", "range", "inverse"):
        values = [0] * data["arrows"]
        for a, b in enumerate(data[key]):
            values[new[a]] = new[b]
        out[key] = values
    out["compose"] = sorted([new[x] for x in t] for t in data["compose"])
    return out


def _limit() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT_AS, LIMIT_AS))


def run(src: Path, args: list[str], cwd: str) -> dict:
    """One CLI call in a limited child: wall time, peak RSS, exit code, output hashes."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
    env.pop("GH_BUDGET", None)
    with tempfile.TemporaryFile() as err:  # a file, so a full pipe cannot block the child
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-m", "groupoid_homology", *args],
            stdout=subprocess.PIPE,
            stderr=err,
            env=env,
            cwd=cwd,
            preexec_fn=_limit,
        )
        stdout = child.stdout.read()
        child.stdout.close()
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return {
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),  # ru_maxrss is in KiB on Linux
        "exit": child.returncode,
        "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
        "stderr_sha256": hashlib.sha256(stderr).hexdigest(),
        "stderr_head": stderr.decode(errors="replace").partition("\n")[0][:200],
    }


def summary(runs: list[dict]) -> dict:
    """Min and median of one side's wall times and peak RSS, with its runs."""
    out = {key: {"min": min(r[key] for r in runs), "median": statistics.median(r[key] for r in runs)}
           for key in ("wall_s", "peak_rss_mb")}
    out["runs"] = runs
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sides", nargs="+", metavar="NAME=CHECKOUT")
    parser.add_argument("-o", "--out", default="BENCH_ladder.json")
    args = parser.parse_args(argv)
    sides = {}
    for item in args.sides:
        name, sep, root = item.partition("=")
        if not sep or not (Path(root) / "src" / "groupoid_homology").is_dir():
            parser.error(f"expected NAME=CHECKOUT with a src/groupoid_homology, got {item!r}")
        sides[name] = (Path(root) / "src").resolve()
    ok = True
    report = {
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "limit_as_bytes": LIMIT_AS,
        "repeats": REPEATS,
        "rungs": [],
    }
    with tempfile.TemporaryDirectory() as tmp:
        first = next(iter(sides.values()))
        for stem, preset in INPUTS.items():  # relative paths, so stdout does not name the directory
            if run(first, ["gen", preset, "-o", f"{stem}.json"], tmp)["exit"]:
                parser.error(f"gen {preset} failed")
        for stem, (base, seed) in RELABELLED.items():
            data = json.loads((Path(tmp) / f"{base}.json").read_text(encoding="utf-8"))
            (Path(tmp) / f"{stem}.json").write_text(json.dumps(relabel(data, seed)), encoding="utf-8")
        for name, cli_args, stem, expect, expect_err in RUNGS:
            argv_ = [cli_args[0], "-i", f"{stem}.json", *cli_args[1:]]
            runs = {side: [] for side in sides}
            for _ in range(REPEATS):
                for side, src in sides.items():
                    runs[side].append(run(src, argv_, tmp))
            every = [r for side_runs in runs.values() for r in side_runs]
            same = len({(r["stdout_sha256"], r["stderr_sha256"]) for r in every}) == 1
            exits = all(r["exit"] == expect and r["stderr_head"].startswith(expect_err) for r in every)
            ok = ok and same and exits
            results = {side: summary(side_runs) for side, side_runs in runs.items()}
            report["rungs"].append({"name": name, "expect_exit": expect, "expect_stderr": expect_err,
                                    "output_match": same, "sides": results})
            cells = "  ".join(
                f"{s}: {r['wall_s']['min']}/{r['wall_s']['median']} s "
                f"{r['peak_rss_mb']['min']}/{r['peak_rss_mb']['median']} MB" for s, r in results.items()
            )
            print(f"{name}: {cells}{'' if same and exits else '  MISMATCH'}", flush=True)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
