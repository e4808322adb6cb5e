"""Command-line frontend: preset generation, homology, UCT, MV, and SFT runs.

Every subcommand prints a deterministic human-readable report and can
additionally write the full structured report as JSON (`--json PATH`).  The
process exits 0 exactly when every verification performed during the run
passed, 1 on any failure or input error, and 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from .abelian import FinAbGroup
from .groupoids import (
    DEFAULT_BUDGET,
    FiniteGroupoid,
    action,
    disjoint_union,
    moore_complex,
    nerve_dims,
    one_object_cyclic,
    orbits,
    pair,
    units,
)
from .mv import decompose, long_exact_sequence
from .sft import (
    FamilySpec,
    GcdTable,
    classify,
    family_h1_oracle,
    family_integral,
    family_mod,
    full_shift_homology,
    full_shift_matrix,
    probe_schedule,
    sft_matrix_homology,
)
from .uct import coefficient_homology, isotropy_homology, uct_assemble, uct_verify


# -- shared plumbing ---------------------------------------------------------


def parse_coefficients(text: str) -> FinAbGroup:
    """Parse a coefficient-group spec: `z`, `z/q`, or sums like `z^2+z/4+z/6`."""
    parts = []
    for raw in text.lower().split("+"):
        term = raw.strip()
        if term == "z":
            parts.append(FinAbGroup.free(1))
        elif term.startswith("z^"):
            try:
                r = int(term[2:])
            except ValueError:
                raise ValueError(f"cannot parse coefficient term '{raw}': bad rank") from None
            if r < 0:
                raise ValueError(f"cannot parse coefficient term '{raw}': negative rank")
            parts.append(FinAbGroup.free(r))
        elif term.startswith("z/"):
            try:
                d = int(term[2:])
            except ValueError:
                raise ValueError(f"cannot parse coefficient term '{raw}': bad modulus") from None
            if d < 0:
                raise ValueError(f"cannot parse coefficient term '{raw}': negative modulus")
            parts.append(FinAbGroup.cyclic(d))
        else:
            raise ValueError(
                f"cannot parse coefficient term '{raw}': expected z, z^r, or z/d"
            )
    out = FinAbGroup.trivial()
    for p in parts:
        out = out.direct_sum(p)
    return out


def parse_unit_list(text: str, g: FiniteGroupoid, flag: str) -> tuple[int, ...]:
    """Comma-separated unit indices (positions in the unit list) -> unit arrows."""
    if text.strip() == "":
        return ()
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            i = int(piece)
        except ValueError:
            raise ValueError(f"{flag}: cannot parse unit index '{piece}'") from None
        if not 0 <= i < len(g.units):
            raise ValueError(
                f"{flag}: unit index {i} out of range (groupoid has {len(g.units)} units)"
            )
        if g.units[i] in out:
            raise ValueError(f"{flag}: unit index {i} listed twice")
        out.append(g.units[i])
    return tuple(out)


def resolve_budget(args: argparse.Namespace) -> int:
    if args.budget is not None:
        budget = args.budget
    elif os.environ.get("GH_BUDGET"):
        raw = os.environ["GH_BUDGET"]
        try:
            budget = int(raw)
        except ValueError:
            raise ValueError(f"GH_BUDGET must be an integer, got '{raw}'") from None
    else:
        budget = DEFAULT_BUDGET
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    return budget


def check_max_degree(n: int) -> int:
    if n < 1:
        raise ValueError(f"max degree must be at least 1, got {n}")
    return n


def load_groupoid(path: str) -> FiniteGroupoid:
    try:
        return FiniteGroupoid.load(path)
    except FileNotFoundError:
        raise ValueError(f"input file not found: {path}") from None
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e.strerror}") from None
    except json.JSONDecodeError as e:
        raise ValueError(f"input file {path} is not valid JSON: {e}") from None
    except UnicodeDecodeError as e:
        raise ValueError(f"input file {path} is not UTF-8: {e}") from None


def _render(group: FinAbGroup, args: argparse.Namespace) -> str:
    return group.render(primary=args.primary)


# -- gen ----------------------------------------------------------------------


def parse_preset(text: str) -> FiniteGroupoid:
    usage = "expected units:k, cyclic:m, pair:k, action:m:perm, or union:f1,f2"
    head, _, rest = text.partition(":")
    try:
        if head == "units":
            return units(int(rest))
        if head == "cyclic":
            return one_object_cyclic(int(rest))
        if head == "pair":
            return pair(int(rest))
        if head == "action":
            m_text, _, perm_text = rest.partition(":")
            permutation = [int(x) for x in perm_text.split(",")] if perm_text else []
            return action(int(m_text), permutation)
        if head == "union":
            paths = [p for p in rest.split(",") if p]
            if len(paths) < 2:
                raise ValueError(f"cannot parse preset '{text}': union needs two files")
            return disjoint_union(*map(load_groupoid, paths))
    except ValueError as e:
        if "cannot parse" in str(e) or "input file" in str(e):
            raise
        raise ValueError(f"cannot parse preset '{text}': {e}") from None
    raise ValueError(f"cannot parse preset '{text}': {usage}")


def cmd_gen(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    g = parse_preset(args.preset)
    payload = json.dumps(g.to_json(), indent=2, sort_keys=True) + "\n"
    lines = []
    if args.out:
        _write_text(args.out, payload)
        lines.append(
            f"wrote groupoid '{args.preset}': {g.arrows} arrows, "
            f"{len(g.units)} units -> {args.out}"
        )
    else:
        lines.append(payload.rstrip("\n"))
    report = {
        "preset": args.preset,
        "arrows": g.arrows,
        "units": len(g.units),
        "path": args.out,
        "ok": True,
    }
    return 0, report, lines


# -- homology ------------------------------------------------------------------


def cmd_homology(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    g = load_groupoid(args.input)
    n_max = check_max_degree(args.max_degree)
    budget = resolve_budget(args)
    coefficients = parse_coefficients(args.coeff)
    dims = nerve_dims(g, n_max, budget)  # the full nerve, whatever route the iso types take
    if args.dump_complex:
        entries = sum(a * b for a, b in zip(dims, dims[1:]))  # the dump writes every boundary dense
        if entries > budget:
            raise ValueError(
                f"--dump-complex would write {entries} boundary entries, over the budget of {budget}")
        complex_ = moore_complex(g, n_max, budget=budget)
        _write_text(args.dump_complex, json.dumps(complex_.to_json(), indent=2, sort_keys=True) + "\n")
    if args.dump_complex and len(orbits(g)) == len(g.units):  # `isotropy_groups(g)` is [g]
        groups = coefficient_homology(complex_, coefficients)
    else:
        [groups] = isotropy_homology(g, n_max, budget, coefficients)
    lines = [
        f"homology of {args.input} with coefficients {coefficients.render()}, "
        f"degrees 0..{n_max - 1}"
    ]
    lines.extend(f"  H_{n} = {_render(groups[n], args)}" for n in range(n_max))
    report = {
        "input": args.input,
        "coefficients": coefficients.to_json(),
        "max_degree": n_max,
        "dims": dims,
        "homology": [
            {"degree": n, "group": groups[n].to_json(), "rendered": groups[n].render()}
            for n in range(n_max)
        ],
        "ok": True,
    }
    return 0, report, lines


# -- uct ------------------------------------------------------------------------


def cmd_uct(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    g = load_groupoid(args.input)
    n_max = check_max_degree(args.max_degree)
    budget = resolve_budget(args)
    coefficients = parse_coefficients(args.coeff)
    reports = uct_verify(g, coefficients, n_max, budget=budget)
    all_match = all(r.match for r in reports)
    lines = [
        f"universal-coefficient check of {args.input} with "
        f"{coefficients.render()}, degrees 0..{n_max - 1}"
    ]
    for r in reports:
        lines.append(
            f"  degree {r.degree}: tensor {_render(r.tensor_part, args)}"
            f" + tor {_render(r.tor_part, args)}"
            f" = {_render(r.assembled, args)};"
            f" direct {_render(r.direct, args)};"
            f" match={'true' if r.match else 'false'}"
        )
    lines.append(f"all degrees match: {'true' if all_match else 'false'}")
    report = {
        "input": args.input,
        "coefficients": coefficients.to_json(),
        "max_degree": n_max,
        "degrees": [r.to_json() for r in reports],
        "ok": all_match,
    }
    return (0 if all_match else 1), report, lines


# -- mv ---------------------------------------------------------------------------


def cmd_mv(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    g = load_groupoid(args.input)
    n_max = check_max_degree(args.max_degree)
    budget = resolve_budget(args)
    u1 = parse_unit_list(args.u1, g, "--u1")
    u2 = parse_unit_list(args.u2, g, "--u2")
    decomposition = decompose(g, u1, u2)
    les = long_exact_sequence(decomposition, n_max, budget=budget)
    verdicts = les.verify_exactness()
    exact_everywhere = all(group.is_trivial() for _, group in verdicts)
    verdict_by_label: dict[int, str] = {}
    for i, (label, group) in enumerate(verdicts, start=1):
        verdict_by_label[i] = "exact" if group.is_trivial() else f"NOT EXACT ({_render(group, args)})"

    # connecting-map verification: boundary membership and lift independence,
    # on the canonical zig-zags that built δ and one randomized lift each
    ses = les.ses
    rng = random.Random(args.seed)
    connecting_checks = 0
    connecting_failures = []
    for n in range(n_max):
        total = ses.homology("total", n)
        for z, canonical in zip(total.cycle_reps, les.connecting[n]):
            alternative = ses.connecting(n, z, rng=rng)
            connecting_checks += 1
            if not canonical.is_boundary:
                connecting_failures.append(f"degree {n}: connecting witness not a boundary")
            if n >= 1:
                below = ses.homology("piece12", n - 1)
                if not below.same_class(canonical.witness, alternative.witness):
                    connecting_failures.append(f"degree {n}: connecting class depends on lift")

    ok = exact_everywhere and not connecting_failures
    lines = [
        f"mayer-vietoris of {args.input} with |U1|={len(u1)}, |U2|={len(u2)}, "
        f"|U12|={len(decomposition.u12)}, degrees 0..{n_max - 1}"
    ]
    records = les.to_json()
    for i, record in enumerate(records):
        lines.append(f"  node {record['label']} = {_render(les.nodes[i][2], args)}")
        if record["map_matrix"] or i < len(records) - 1:
            lines.append(f"    map matrix: {record['map_matrix']}")
        if i in verdict_by_label:
            lines.append(f"    exactness here: {verdict_by_label[i]}")
    lines.append(
        f"connecting checks: {connecting_checks} cycles verified"
        + ("" if not connecting_failures else f", {len(connecting_failures)} FAILED")
    )
    for failure in connecting_failures:
        lines.append(f"  {failure}")
    lines.append(f"all nodes exact: {'true' if ok else 'false'}")
    report = {
        "input": args.input,
        "u1": list(u1),
        "u2": list(u2),
        "u12": list(decomposition.u12),
        "max_degree": n_max,
        "nodes": records,
        "exactness": [
            {"label": label, "defect": group.to_json(), "exact": group.is_trivial()}
            for label, group in verdicts
        ],
        "connecting_checks": connecting_checks,
        "connecting_failures": connecting_failures,
        "ok": ok,
    }
    return (0 if ok else 1), report, lines


# -- sft ----------------------------------------------------------------------------


def cmd_sft(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    if args.full_shift is not None and (args.q is not None or args.qmax is not None):
        raise ValueError("--q and --qmax apply to --family only")
    if args.q is not None and args.qmax is not None:
        raise ValueError("--q and --qmax cannot both be given")
    n_max = check_max_degree(args.max_degree)
    lines: list[str] = []
    verified = True
    report: dict = {"ok": True}
    if args.full_shift is not None:
        n = args.full_shift
        groups = full_shift_homology(n, n_max)
        matrix_h0, matrix_h1 = sft_matrix_homology(full_shift_matrix(n))
        cross = matrix_h0 == groups[0] and matrix_h1 == groups[1]
        verified = cross
        lines.append(f"full shift on {n} letters, degrees 0..{n_max}")
        lines.extend(f"  H_{k} = {_render(groups[k], args)}" for k in range(n_max + 1))
        lines.append(f"transition-matrix cross-check: {'ok' if cross else 'FAILED'}")
        report.update(
            {
                "full_shift": n,
                "homology": [grp.to_json() for grp in groups],
                "matrix_route": [matrix_h0.to_json(), matrix_h1.to_json()],
                "cross_check": cross,
            }
        )
    else:
        n, m = args.family
        spec = FamilySpec(n, m)
        integral = family_integral(spec, n_max)
        lines.append(f"family F({n}, {m}) integral homology, degrees 0..{n_max}")
        lines.extend(f"  H_{k} = {_render(integral[k], args)}" for k in range(n_max + 1))
        report.update(
            {
                "family": [n, m],
                "integral": [grp.to_json() for grp in integral],
            }
        )
        rows = ()
        if args.q is not None:
            rows = (family_mod(spec, args.q),)
        elif args.qmax is not None:
            rows = GcdTable.build(spec, args.qmax).rows
        if rows:
            verified = all(
                uct_assemble(integral[0], FinAbGroup.trivial(), FinAbGroup.cyclic(row.q))[2] == row.h0
                and uct_assemble(integral[1], integral[0], FinAbGroup.cyclic(row.q))[2] == row.h1
                for row in rows
            )
            if len(rows) == 1:
                row = rows[0]
                lines.append(f"with coefficients Z/{row.q}:")
                lines.append(f"  H_0 = {_render(row.h0, args)}")
                lines.append(f"  H_1 = {_render(row.h1, args)}")
                lines.append("  H_k = 0 for k >= 2")
            else:
                lines.append(f"finite-coefficient table, q = 1..{rows[-1].q}:")
                for row in rows:
                    lines.append(
                        f"  q={row.q}: H_0 = {_render(row.h0, args)}; "
                        f"H_1 = {_render(row.h1, args)}"
                    )
            lines.append(
                f"universal-coefficient cross-check: {'ok' if verified else 'FAILED'}"
            )
            report["table"] = [row.to_json() for row in rows]
            report["cross_check"] = verified
    report["ok"] = verified
    lines.append(f"verified: {'true' if verified else 'false'}")
    return (0 if verified else 1), report, lines


# -- classify --------------------------------------------------------------------------


def cmd_classify(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    n, m = args.family
    spec = FamilySpec(n, m)
    bound = args.bound
    oracle = family_h1_oracle(spec)
    candidates = classify(oracle, bound)
    sound = spec.unordered in candidates
    lines = [
        f"classification probe for family F({n}, {m}) with search bound {bound}",
        f"probe moduli: {probe_schedule(bound)}",
        "candidates: " + ", ".join("{%d, %d}" % c for c in candidates),
        f"soundness (true pair among candidates): {'true' if sound else 'false'}",
    ]
    report = {
        "family": [n, m],
        "bound": bound,
        "probes": probe_schedule(bound),
        "candidates": [list(c) for c in candidates],
        "sound": sound,
    }
    if args.qmax is not None:
        reference = GcdTable.build(spec, args.qmax).h1_signature()
        identical = []
        for c in candidates:
            other = GcdTable.build(FamilySpec(*c), args.qmax).h1_signature()
            identical.append(other == reference)
        lines.append(
            f"full-table comparison up to q={args.qmax}: "
            + ", ".join(
                "{%d, %d}=%s" % (c[0], c[1], "identical" if same else "differs")
                for c, same in zip(candidates, identical)
            )
        )
        ambiguous = [c for c, same in zip(candidates, identical) if same and c != spec.unordered]
        if ambiguous:
            lines.append(
                "flagged for manual review (indistinguishable families): "
                + ", ".join("{%d, %d}" % c for c in ambiguous)
            )
        report["table_identical"] = [
            {"pair": list(c), "identical": same} for c, same in zip(candidates, identical)
        ]
        report["flagged"] = [list(c) for c in ambiguous]
    report["ok"] = sound
    return (0 if sound else 1), report, lines


# -- entry point ------------------------------------------------------------------------


# built once per process: parsing leaves the parser unchanged, handlers are
# module functions and `GH_BUDGET` is read when a command runs
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupoid-homology",
        description="Exact homology of finite discrete groupoids: Moore complexes, "
        "universal coefficients, Mayer-Vietoris sequences, and shift-family tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, nerve: bool = True, degree: bool = True,
               primary: bool = True, seed: bool = False) -> None:
        """Only the shared flags the subcommand reads; -i and --budget go with a nerve."""
        if nerve:
            p.add_argument("-i", "--input", required=True, help="groupoid JSON file")
        if degree:
            p.add_argument(
                "-N", "--max-degree", type=int, default=4, help="truncation degree (default 4)"
            )
        if nerve:
            p.add_argument("--budget", type=int, default=None, help="nerve size budget")
        p.add_argument("--json", dest="json_path", default=None, help="write JSON report here")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="seed for randomized re-checks")
        if primary:
            p.add_argument("--primary", action="store_true",
                           help="render torsion as prime-power summands")

    p = sub.add_parser("gen", help="generate a preset groupoid file")
    p.add_argument("preset", help="units:k | cyclic:m | pair:k | action:m:perm | union:f1,f2")
    p.add_argument("-o", "--out", default=None, help="output path (stdout if omitted)")
    p.add_argument("--json", dest="json_path", default=None, help="write JSON report here")
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("homology", help="homology table of a groupoid file")
    common(p)
    p.add_argument("--coeff", default="z", help="coefficients: z, z/q, or z^r+z/d1+...")
    p.add_argument("--dump-complex", default=None, help="write the Moore complex JSON here")
    p.set_defaults(handler=cmd_homology)

    p = sub.add_parser("uct", help="universal-coefficient comparison")
    common(p)
    p.add_argument("--coeff", default="z/2", help="coefficient group (default z/2)")
    p.set_defaults(handler=cmd_uct)

    p = sub.add_parser("mv", help="Mayer-Vietoris long exact sequence")
    common(p, seed=True)
    p.add_argument("--u1", required=True, help="comma-separated unit indices of U1")
    p.add_argument("--u2", required=True, help="comma-separated unit indices of U2")
    p.set_defaults(handler=cmd_mv)

    p = sub.add_parser("sft", help="closed-form shift-groupoid homology")
    common(p, nerve=False)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--full-shift", type=int, default=None, metavar="N")
    group.add_argument("--family", type=int, nargs=2, default=None, metavar=("N", "M"))
    p.add_argument("--q", type=int, default=None, help="single coefficient modulus (--family only)")
    p.add_argument("--qmax", type=int, default=None, help="table for q = 1..QMAX (--family only)")
    p.set_defaults(handler=cmd_sft)

    p = sub.add_parser("classify", help="recover family parameters from H_1 data")
    common(p, nerve=False, degree=False, primary=False)
    p.add_argument("--family", type=int, nargs=2, required=True, metavar=("N", "M"))
    p.add_argument("--bound", type=int, required=True, help="search bound")
    p.add_argument("--qmax", type=int, default=None, help="verify tables up to this q")
    p.set_defaults(handler=cmd_classify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, report, lines = args.handler(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        code, report, lines = 1, {"error": str(e), "ok": False}, []
    for line in lines:
        print(line)
    if getattr(args, "json_path", None):
        text = json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        try:
            _write_text(args.json_path, text)
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    return code


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise ValueError(f"cannot write {path}: {e.strerror}") from None


if __name__ == "__main__":
    sys.exit(main())
