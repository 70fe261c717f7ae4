"""Command line front end.

Every subcommand prints one deterministic JSON report to stdout:
sorted keys, two-space indent, a tool version, and a sha256 digest of
the input (file bytes, or the canonical parameter encoding when the
input comes from flags). Exit status is 0 on success and all-pass
verification, 1 when a verification verdict is negative, 2 on usage or
input errors, when the process runs out of memory and when stdout is
closed before the report is written; each exit 2 prints one `error:`
line on stderr. The report is streamed in chunks as it is encoded, so
when memory runs out or the reader goes away while it is written, part
of it may already be on stdout.

Cycle notation like "(0 1)(2 3)" is accepted only here, as a flag
convenience; files always use image sequences.

Each subcommand imports only the layers it uses, inside its handler:
`enumerate`, `parity-audit` and `universal-report` the census (and the
last the Hurwitz layer for its witnesses), the datum subcommands the
Hurwitz layer and the permutations, `normalize`, `count-ends` and the
validation of an exhaustion the exhaustion layer, and the layered-cover
subcommands `layered`, which imports `exhaustion`; `classify` needs
none. The census answers every cell from closed forms, so no run loads
numpy or the census engine, which only the tests use.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
from typing import TYPE_CHECKING

from . import __version__, jsonio
from .errors import InvalidInput, WorkbenchError
from .surfaces import (
    KLEIN_BOTTLE,
    PROJECTIVE_PLANE,
    SPHERE,
    TORUS,
    ClosedSurface,
    classify,
)

if TYPE_CHECKING:
    from .exhaustion import ExhaustionGraph
    from .hurwitz import HurwitzData
    from .perms import Perm

_COUNT_LAW = "crosscaps = 2 - degree + branch_points"
_COUNT_LAW_NOTES = (
    "every realized nonorientable row satisfies " + _COUNT_LAW
    + ", equivalently branch_points = degree + crosscaps - 2",
    "the variant relation degree + crosscaps = 2 - branch_points is"
    " inconsistent with the identity chi = degree - branch_points for"
    " simple covers and is rejected",
)


# --- cycle notation (CLI only) ---

_CYCLE_CHUNK = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Perm:
    from .perms import from_cycles, identity

    text = text.strip()
    if text in ("", "id", "()"):
        return identity(degree)
    leftovers = _CYCLE_CHUNK.sub("", text).strip()
    if leftovers:
        raise InvalidInput(f"cannot parse cycle notation {text!r}")
    cycles = []
    for chunk in _CYCLE_CHUNK.findall(text):
        entries = [t for t in re.split(r"[,\s]+", chunk.strip()) if t]
        try:
            cycles.append(tuple(int(t) for t in entries))
        except ValueError:
            raise InvalidInput(f"cannot parse cycle {chunk!r}") from None
    try:
        return from_cycles(degree, cycles)
    except ValueError as exc:
        raise InvalidInput(str(exc)) from None


def format_cycles(cycles) -> str:
    """Cycle notation of a permutation's cycles of length 2 or more."""
    if not cycles:
        return "id"
    return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycles)


# --- shared helpers ---


def parse_base(token: str) -> ClosedSurface:
    named = {
        "s2": SPHERE,
        "sphere": SPHERE,
        "rp2": PROJECTIVE_PLANE,
        "torus": TORUS,
        "klein": KLEIN_BOTTLE,
    }
    t = token.lower()
    if t in named:
        return named[t]
    m = re.fullmatch(r"o(\d+)", t)
    if m:
        return ClosedSurface(True, int(m.group(1)))
    m = re.fullmatch(r"n(\d+)", t)
    if m:
        return ClosedSurface(False, int(m.group(1)))
    raise InvalidInput(
        f"unknown base {token!r}; use s2, rp2, torus, klein, o<genus>, n<crosscaps>"
    )


def _digest_file(path: str) -> tuple[bytes, str]:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc.strerror}") from None
    return data, hashlib.sha256(data).hexdigest()


def _digest_params(params: dict) -> str:
    canon = json.dumps(params, sort_keys=True).encode()
    return hashlib.sha256(canon).hexdigest()


def _load_doc(path: str) -> tuple[dict, str]:
    data, digest = _digest_file(path)
    text = data.decode("utf-8")
    del data  # so that only the text and the parsed tree are alive together
    return jsonio.loads(text), digest


def _summary_json(summary) -> dict:
    return {
        "degree": summary.degree,
        "simple": summary.simple,
        "connected": summary.connected,
        "branch_points": summary.branch_point_count,
        "branching_indices": summary.branching_indices,
        "components": [
            {"surface": jsonio.surface_to_json(s), "sheets": k}
            for s, k in summary.components
        ],
    }


def _datum_payload(datum: HurwitzData) -> dict:
    from .hurwitz import total_space

    # formatted and dropped before the datum's JSON exists, to keep the peak
    summary = total_space(datum)
    cycles = [format_cycles(c) for c in summary.meridian_cycles]
    summary = _summary_json(summary)
    return {"datum": jsonio.hurwitz_to_json(datum), "meridian_cycles": cycles, "summary": summary}


def _check_input(k: int, d: int) -> None:
    """Charge a Hurwitz input of k generators and degree d one pass, before
    anything of degree d is built."""
    from .hurwitz import admit_passes, pass_steps

    admit_passes(f"reading the datum of degree {d}", pass_steps(max(k, 1), d))


def _datum_from_doc(doc: dict) -> HurwitzData:
    from .hurwitz import generators

    datum = jsonio.hurwitz_from_json(doc)
    _check_input(len(generators(datum)), datum.degree)
    return datum


def _datum_from_flags(args) -> HurwitzData:
    from .hurwitz import HurwitzData

    if args.base is None or args.degree is None:
        raise InvalidInput("need --input, or --base and --degree with generator flags")
    base = parse_base(args.base)
    d = args.degree

    def split(text):
        return [t for t in text.split(";") if t.strip()] if text else []

    pairs, crosscaps, meridians = split(args.handles), split(args.crosscaps), split(args.meridians)
    _check_input(2 * len(pairs) + len(crosscaps) + len(meridians), d)
    handles = []
    for pair in pairs:
        halves = pair.split("|")
        if len(halves) != 2:
            raise InvalidInput("each handle is '<cycles>|<cycles>'")
        handles.append((parse_cycles(halves[0], d), parse_cycles(halves[1], d)))
    crosscaps = [parse_cycles(t, d) for t in crosscaps]
    meridians = [parse_cycles(t, d) for t in meridians]
    return HurwitzData(base, d, tuple(handles), tuple(crosscaps), tuple(meridians))


def _hurwitz_input(args) -> tuple[HurwitzData, str]:
    if args.input:
        doc, digest = _load_doc(args.input)
        return _datum_from_doc(doc), digest
    datum = _datum_from_flags(args)
    digest = _digest_params(jsonio.hurwitz_to_json(datum))
    return datum, digest


def _exhaustion_input(args) -> tuple[ExhaustionGraph, str]:
    doc, digest = _load_doc(args.input)
    return jsonio.exhaustion_from_json(doc), digest


def _layered_input(args):
    doc, digest = _load_doc(args.input)
    return jsonio.layered_from_json(doc), digest


# --- subcommand handlers: return (payload, exit_code, digest) ---


def _cmd_classify(args):
    surface = classify(args.chi, args.orientable == "true")
    payload = {"surface": jsonio.surface_to_json(surface)}
    digest = _digest_params({"chi": args.chi, "orientable": args.orientable})
    return payload, 0, digest


def _cmd_validate(args):
    if args.input:
        doc, digest = _load_doc(args.input)
        kind = jsonio.sniff(doc)
        if kind == "hurwitz":
            from .hurwitz import validate

            report = validate(_datum_from_doc(doc))
        elif kind == "exhaustion":
            from .exhaustion import validate_exhaustion

            report = validate_exhaustion(jsonio.exhaustion_from_json(doc))
        else:
            raise InvalidInput(f"cannot validate documents of format {kind!r}")
    else:
        from .hurwitz import validate

        datum = _datum_from_flags(args)
        digest = _digest_params(jsonio.hurwitz_to_json(datum))
        kind = "hurwitz"
        report = validate(datum)
    payload = {
        "kind": kind,
        "ok": report.ok,
        "problems": report.problems,
        "notes": report.notes,
    }
    return payload, 0 if report.ok else 1, digest


def _cmd_total_space(args):
    datum, digest = _hurwitz_input(args)
    return _datum_payload(datum), 0, digest


def _cmd_construct(args):
    from .hurwitz import construct_cyclic_rp2, construct_hyperelliptic

    if args.family == "hyperelliptic":
        if args.genus is None:
            raise InvalidInput("hyperelliptic family needs --genus")
        datum = construct_hyperelliptic(args.genus)
        params = {"family": args.family, "genus": args.genus}
    else:
        if args.crosscaps is None:
            raise InvalidInput("cyclic-rp2 family needs --crosscaps")
        datum = construct_cyclic_rp2(args.crosscaps)
        params = {"family": args.family, "crosscaps": args.crosscaps}
    return _datum_payload(datum), 0, _digest_params(params)


def _cmd_stabilize(args):
    from .hurwitz import admit_passes, generators, stabilize, stabilize_steps

    if args.times < 0:
        raise InvalidInput("--times cannot be negative")
    datum, digest = _hurwitz_input(args)
    steps = stabilize_steps(len(generators(datum)), datum.degree, args.times)
    admit_passes(f"stabilizing {args.times} times", steps)
    datum = stabilize(datum, args.times)
    payload = _datum_payload(datum)
    payload["times"] = args.times
    return payload, 0, digest


def _cmd_compose_double(args):
    from .hurwitz import compose_orientation_double

    datum, digest = _hurwitz_input(args)
    return _datum_payload(compose_orientation_double(datum)), 0, digest


def _cmd_enumerate(args):
    from .census import enumerate_covers

    base = parse_base(args.base)
    simple_only = not args.all
    row = enumerate_covers(base, args.degree, args.branch_points, simple_only)
    rows = [
        {
            "surface": jsonio.surface_to_json(s),
            "raw_count": raw,
            "class_count": classes,
        }
        for s, raw, classes in row.realized
    ]
    payload = {
        "base": jsonio.surface_to_json(base),
        "degree": args.degree,
        "branch_points": args.branch_points,
        "simple_only": simple_only,
        "rows": rows,
        "total_raw": sum(r["raw_count"] for r in rows),
        "total_classes": sum(r["class_count"] for r in rows),
    }
    if not base.orientable:
        payload["notes"] = _COUNT_LAW_NOTES
    params = {
        "base": args.base,
        "degree": args.degree,
        "branch_points": args.branch_points,
        "simple_only": simple_only,
    }
    return payload, 0, _digest_params(params)


def _cmd_parity_audit(args):
    from .census import parity_audit

    report = parity_audit(args.dmax, args.bmax)

    def cells(rows):
        return [{"degree": d, "branch_points": b, "crosscaps": h} for d, b, h in rows]

    payload = {
        "dmax": report.d_max,
        "bmax": report.b_max,
        "laws": ["crosscaps == degree (mod 2)", _COUNT_LAW],
        "realized_rows": cells(report.rows),
        "violations": cells(report.violations),
        "passed": report.passed,
        "notes": _COUNT_LAW_NOTES,
    }
    digest = _digest_params({"dmax": args.dmax, "bmax": args.bmax})
    return payload, 0 if report.passed else 1, digest


def _cmd_universal_report(args):
    from .census import universal_base_report_dim2

    report = universal_base_report_dim2(args.degree, args.genus_max)
    payload = {
        "degree": report.n,
        "genus_max": report.genus_max,
        "sphere_witnesses": [
            {"genus": w.genus, "degree": w.degree, "branch_points": w.branch_count}
            for w in report.sphere_witnesses
        ],
        "rp2_blocked_crosscaps": report.rp2_blocked_h,
        "rp2_forced_branch_points": report.rp2_forced_branch,
        "rp2_exhaustive_cell": report.rp2_exhaustive_cell,
        "rp2_exhaustive_empty": report.rp2_exhaustive_empty,
        "notes": report.notes,
    }
    digest = _digest_params({"degree": args.degree, "genus_max": args.genus_max})
    return payload, 0, digest


def _cmd_normalize(args):
    from .exhaustion import normalize, total_chi

    graph, digest = _exhaustion_input(args)
    result = normalize(graph)
    payload = {
        "exhaustion": jsonio.exhaustion_to_json(result),
        "stable_depth": result.stable_depth,
        "chi_before": total_chi(graph),
        "chi_after": total_chi(result),
    }
    return payload, 0, digest


def _parse_remaining(text: str):
    if text == "none":
        return None
    if text == "inf":
        return math.inf
    try:
        value = int(text)
    except ValueError:
        raise InvalidInput("--remaining takes 'none', 'inf', or an integer") from None
    if value < 0:
        raise InvalidInput("--remaining cannot be negative")
    return value


def _cmd_count_ends(args):
    from .exhaustion import count_ends

    graph, digest = _exhaustion_input(args)
    ec = count_ends(graph, args.levels, _parse_remaining(args.remaining))
    payload = {
        "levels": args.levels,
        "ends": ec.ends,
        "exact": ec.exact,
        "infinite": ec.infinite,
    }
    return payload, 0, digest


def _cmd_build_cover(args):
    from .layered import build_cover

    graph, digest = _exhaustion_input(args)
    cover = build_cover(graph, args.levels)
    return {"cover": jsonio.layered_to_json(cover)}, 0, digest


def _report_json(report) -> dict:
    return {
        "ok": report.ok,
        "checks": [
            {"name": name, "passed": passed, "detail": detail}
            for name, passed, detail in report.checks
        ],
    }


def _cmd_staircase(args):
    from .layered import staircase, verify_layered

    cover = staircase(args.levels, passes=1 + args.verify)
    payload = {"cover": jsonio.layered_to_json(cover)}
    code = 0
    if args.verify:
        report = verify_layered(cover)
        payload["verification"] = _report_json(report)
        code = 0 if report.ok else 1
    return payload, code, _digest_params({"levels": args.levels})


def _cmd_verify(args):
    from .layered import restriction_compatibility, verify_layered

    cover, digest = _layered_input(args)
    report = verify_layered(cover)
    payload = _report_json(report)
    ok = report.ok
    if args.restrictions:
        checked = []
        incompatible = []
        for i in range(1, cover.depth):
            compatible = restriction_compatibility(cover, i)
            checked.append(i)
            if not compatible:
                incompatible.append(i)
        payload["restrictions"] = {
            "checked_levels": checked,
            "incompatible_levels": incompatible,
            "all_compatible": not incompatible,
        }
        ok = ok and not incompatible
        payload["ok"] = ok
    return payload, 0 if ok else 1, digest


def _cmd_compose_staircase(args):
    from .layered import compose_with_staircase

    cover, digest = _layered_input(args)
    report = compose_with_staircase(cover, args.levels)
    payload = {
        "cover_degree": report.cover_degree,
        "staircase_depth": report.staircase_depth,
        "fiber_count": report.fiber_count,
        "labels": report.labels,
        "potentially_nonsimple": report.potentially_nonsimple,
        "unbounded_in_depth": report.unbounded_in_depth,
        "notes": report.notes,
    }
    return payload, 0, digest


# --- parser ---


def _add_datum_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="hurwitz JSON file")
    p.add_argument("--base", help="base surface token (s2, rp2, torus, klein, o<g>, n<h>)")
    p.add_argument("--degree", type=int, help="sheet count")
    p.add_argument("--handles", help="semicolon-separated '<cycles>|<cycles>' pairs")
    p.add_argument("--crosscaps", help="semicolon-separated cycle words")
    p.add_argument("--meridians", help="semicolon-separated cycle words")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coverbench",
        description="workbench for branched covers of surfaces and layered covers of the plane",
    )
    parser.add_argument("--version", action="version", version=f"coverbench {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("classify", help="closed surface from Euler characteristic")
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--orientable", choices=["true", "false"], required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("validate", help="check a hurwitz or exhaustion document")
    _add_datum_flags(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("total-space", help="classify the total space of a hurwitz datum")
    _add_datum_flags(p)
    p.set_defaults(func=_cmd_total_space)

    p = sub.add_parser("construct", help="build a standard cover family member")
    p.add_argument("--family", choices=["hyperelliptic", "cyclic-rp2"], required=True)
    p.add_argument("--genus", type=int)
    p.add_argument("--crosscaps", type=int)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("stabilize", help="raise degree by trivial sheets")
    _add_datum_flags(p)
    p.add_argument("--times", type=int, default=1)
    p.set_defaults(func=_cmd_stabilize)

    p = sub.add_parser("compose-double", help="compose with the orientation double cover of rp2")
    _add_datum_flags(p)
    p.set_defaults(func=_cmd_compose_double)

    p = sub.add_parser("enumerate", help="exhaustive census of one cell")
    p.add_argument("--base", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--branch-points", type=int, required=True, dest="branch_points")
    p.add_argument("--all", action="store_true", help="include non-simple covers")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("parity-audit", help="census-wide parity and count laws over rp2")
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--bmax", type=int, required=True)
    p.set_defaults(func=_cmd_parity_audit)

    p = sub.add_parser("universal-report", help="contrast sphere and rp2 targets at one degree")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--genus-max", type=int, required=True, dest="genus_max")
    p.set_defaults(func=_cmd_universal_report)

    p = sub.add_parser("normalize", help="rewrite an exhaustion into normal shape")
    p.add_argument("--input", required=True, help="exhaustion JSON file")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("count-ends", help="count ends of a normalized exhaustion")
    p.add_argument("--input", required=True, help="exhaustion JSON file")
    p.add_argument("--levels", type=int, required=True)
    p.add_argument(
        "--remaining",
        default="none",
        help="two-legged pieces beyond the truncation: none (unknown, a lower bound), "
        "inf, or an integer n (exactly n more ends)",
    )
    p.set_defaults(func=_cmd_count_ends)

    p = sub.add_parser("build-cover", help="layered cover over a normalized exhaustion")
    p.add_argument("--input", required=True, help="exhaustion JSON file")
    p.add_argument("--levels", type=int, required=True)
    p.set_defaults(func=_cmd_build_cover)

    p = sub.add_parser("staircase", help="the one-new-sheet-per-level plane self-cover")
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_staircase)

    p = sub.add_parser("verify", help="re-derive all invariants of a layered cover")
    p.add_argument("--input", required=True, help="layered JSON file")
    p.add_argument(
        "--restrictions",
        action="store_true",
        help="also check level-to-level restriction compatibility",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("compose-staircase", help="stack a verified cover on the staircase")
    p.add_argument("--input", required=True, help="layered JSON file")
    p.add_argument("--levels", type=int, required=True)
    p.set_defaults(func=_cmd_compose_staircase)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code, digest = args.func(args)
        doc = {
            "format": "report",
            "version": jsonio.FORMAT_VERSION,
            "tool": "coverbench",
            "tool_version": __version__,
            "command": args.subcommand,
            "input_digest": digest,
            "result": payload,
        }
        # sys.stdout is looked up now, so a redirect of it takes the report
        jsonio.dump(doc, sys.stdout.write)
        sys.stdout.flush()
    except (WorkbenchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: out of memory running {args.subcommand}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # what is still buffered goes to devnull, so that the flush at exit
        # does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: stdout closed while writing the report of {args.subcommand}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
