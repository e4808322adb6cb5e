"""Size ladder: wall time and peak RSS of the CLI on growing inputs, per checkout.

Run from the root of a checkout, naming each checkout to measure:

    python3 tools/ladder.py parent=../parent change=. -o BENCH_ladder.json

Each rung runs `python -m groupoid_homology ...` with the named checkout's
src/ on PYTHONPATH, in a child process limited to 2 GiB of address space
(RLIMIT_AS), one side after the other.  For each side it records the wall
time, the child's own peak RSS (from os.wait4), the exit code, the sha256
of stdout and of stderr, and the first line of stderr.  The inputs are written once, by the first side's
`groupoid-homology gen`, into a temporary directory that is every child's
working directory, so every side reads the same files by the same name.
The two `mv` rungs cover a three-orbit union, cyclic:12 ⊔ pair:3 ⊔ cyclic:8
and cyclic:20 ⊔ pair:4 ⊔ cyclic:16, by its first two and its last two orbits,
so the intersection is the pair groupoid.
The last rung is over the default nerve budget and must be refused with
exit 1 and the CLI's budget message, so a crash (say a MemoryError under
the limit, also exit 1) does not pass for a refusal.  A rung whose exit
code or stderr start is not the expected one, or whose stdout or stderr
differs between sides, is flagged in the report and makes the tool exit 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

LIMIT_AS = 2 << 30
# input file stem -> `gen` preset, in order: a union reads files written before it
INPUTS = {
    "cyclic-8": "cyclic:8", "cyclic-12": "cyclic:12", "cyclic-30": "cyclic:30",
    "cyclic-60": "cyclic:60", "pair-3": "pair:3",
    "mv-union": "union:cyclic-12.json,pair-3.json,cyclic-8.json",
    "cyclic-16": "cyclic:16", "cyclic-20": "cyclic:20", "pair-4": "pair:4",
    "mv-union-large": "union:cyclic-20.json,pair-4.json,cyclic-16.json",
}
REFUSED = "error: nerve budget exceeded at degree"
MV_COVER = ["--u1", "0,1,2,3", "--u2", "1,2,3,4"]  # unit positions: cyclic:12 is 0, cyclic:8 is 4
MV_COVER_LARGE = ["--u1", "0,1,2,3,4", "--u2", "1,2,3,4,5"]  # cyclic:20 is 0, cyclic:16 is 5
# (name, CLI arguments after `-i <input>`, input stem, expected exit code, expected stderr start)
RUNGS = [
    ("homology cyclic:30 -N 3", ["homology", "-N", "3"], "cyclic-30", 0, ""),
    ("homology cyclic:60 -N 3", ["homology", "-N", "3"], "cyclic-60", 0, ""),
    ("homology cyclic:8 -N 4", ["homology", "-N", "4"], "cyclic-8", 0, ""),
    ("homology cyclic:8 -N 4 --coeff z/4", ["homology", "-N", "4", "--coeff", "z/4"], "cyclic-8", 0, ""),
    ("uct cyclic:30 -N 3 --coeff z/4", ["uct", "-N", "3", "--coeff", "z/4"], "cyclic-30", 0, ""),
    ("mv cyclic:12 + pair:3 + cyclic:8 -N 3", ["mv", "-N", "3", *MV_COVER], "mv-union", 0, ""),
    ("mv cyclic:20 + pair:4 + cyclic:16 -N 3", ["mv", "-N", "3", *MV_COVER_LARGE], "mv-union-large", 0, ""),
    ("homology cyclic:60 -N 4 (over budget)", ["homology", "-N", "4"], "cyclic-60", 1, REFUSED),
]


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
        "rungs": [],
    }
    with tempfile.TemporaryDirectory() as tmp:
        first = next(iter(sides.values()))
        for stem, preset in INPUTS.items():  # relative paths, so stdout does not name the directory
            if run(first, ["gen", preset, "-o", f"{stem}.json"], tmp)["exit"]:
                parser.error(f"gen {preset} failed")
        for name, cli_args, stem, expect, expect_err in RUNGS:
            argv_ = [cli_args[0], "-i", f"{stem}.json", *cli_args[1:]]
            results = {side: run(src, argv_, tmp) for side, src in sides.items()}
            same = len({(r["stdout_sha256"], r["stderr_sha256"]) for r in results.values()}) == 1
            exits = all(r["exit"] == expect and r["stderr_head"].startswith(expect_err)
                        for r in results.values())
            ok = ok and same and exits
            report["rungs"].append({"name": name, "expect_exit": expect, "expect_stderr": expect_err,
                                    "output_match": same, "sides": results})
            cells = "  ".join(f"{s}: {r['wall_s']} s {r['peak_rss_mb']} MB exit {r['exit']}"
                              for s, r in results.items())
            print(f"{name}: {cells}{'' if same and exits else '  MISMATCH'}", flush=True)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
