"""The benchmark's workloads: fixed job lists of coverbench CLI commands,
each with the check its report must pass.

A check takes the exit code and the parsed report and returns a list of
problems; an empty list means the job's output is correct.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial
from typing import Callable

from coverbench.exhaustion import Piece, piece_shape
from inputs import FAN_ENDS, STAIRCASE_LEVELS


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple[str, ...]
    """CLI arguments; "{work}" stands for the run's input directory."""
    check: Callable[[int, dict], list[str]]
    env: dict[str, str] = field(default_factory=dict)


def _exit(code: int, want: int = 0) -> list[str]:
    return [] if code == want else [f"exit code {code}, expected {want}"]


# --- census checks ---

# (total_raw, total_classes) of each cell, recorded from the census.
CENSUS_TOTALS = {
    ("s2", 6, 6, True): (0, 0),
    ("rp2", 6, 4, True): (23040, 32),
    ("rp2", 5, 4, True): (10320, 86),
    ("s2", 7, 2, True): (0, 0),
    ("s2", 4, 8, True): (131040, 5460),
    ("o2", 3, 4, True): (34944, 5824),
    ("rp2", 4, 4, False): (277110, 11856),
    ("rp2", 4, 6, True): (87504, 3662),
    ("torus", 4, 4, True): (58752, 2496),
    ("s2", 4, 6, True): (2880, 120),
}


def _census_check(base: str, d: int, b: int, simple: bool):
    def check(code: int, report: dict) -> list[str]:
        problems = _exit(code)
        res = report["result"]
        got, want = (res["total_raw"], res["total_classes"]), CENSUS_TOTALS[(base, d, b, simple)]
        if got != want:
            problems.append(f"totals {got}, recorded {want}")
        if base == "s2" and b == 2 * d - 2:
            hurwitz = factorial(2 * d - 2) * d ** (d - 3)
            if res["total_raw"] != hurwitz:
                problems.append(f"total_raw {res['total_raw']} != Hurwitz count {hurwitz}")
        if base == "s2" and b < 2 * d - 2 and res["rows"]:
            problems.append("a connected cover of the sphere needs b >= 2d - 2")
        if base == "rp2" and simple:
            for row in res["rows"]:
                s = row["surface"]
                if not s["orientable"] and s["genus"] != 2 - d + b:
                    problems.append(f"row with {s['genus']} crosscaps breaks the count law")
        return problems

    return check


def _enumerate(base: str, d: int, b: int, simple: bool = True, env=None) -> Job:
    argv = ("enumerate", "--base", base, "--degree", str(d), "--branch-points", str(b))
    return Job(
        f"enum-{base}-{d}-{b}" + ("" if simple else "-all"),
        argv + (() if simple else ("--all",)),
        _census_check(base, d, b, simple),
        env or {},
    )


def _audit_check(code: int, report: dict) -> list[str]:
    res = report["result"]
    problems = _exit(code)
    if res["passed"] is not True or res["violations"]:
        problems.append("parity audit did not pass cleanly")
    return problems


# --- plane checks ---


def _normalize_check(pieces_out: int):
    def check(code: int, report: dict) -> list[str]:
        res = report["result"]
        problems = _exit(code)
        if res["chi_before"] != res["chi_after"]:
            problems.append(f"chi {res['chi_before']} became {res['chi_after']}")
        pieces = res["exhaustion"]["pieces"]
        if len(pieces) != pieces_out:
            problems.append(f"{len(pieces)} pieces out, recorded {pieces_out}")
        shapes = {
            piece_shape(Piece(p["id"], p["level"], p["genus"], p["inner"], p["outer"]))
            for p in pieces
        }
        if not shapes <= {"disk", "a", "b"}:
            problems.append("a piece is not disk, annulus or pants shaped")
        return problems

    return check


def _cover_check(code: int, report: dict) -> list[str]:
    degree = report["result"]["cover"]["degree"]
    problems = _exit(code)
    if degree != 2 * FAN_ENDS:
        problems.append(f"fan cover degree {degree}, expected {2 * FAN_ENDS}")
    return problems


def _verify_check(code: int, report: dict) -> list[str]:
    res = report["result"]
    problems = _exit(code)
    if res["ok"] is not True or res["restrictions"]["all_compatible"] is not True:
        problems.append("verification or restriction check failed")
    return problems


def _staircase_check(code: int, report: dict) -> list[str]:
    res = report["result"]
    problems = _exit(code)
    if res["verification"]["ok"] is not True:
        problems.append("staircase verification failed")
    if res["cover"]["degree"] != STAIRCASE_LEVELS + 1:
        problems.append(f"staircase degree {res['cover']['degree']}")
    return problems


def _classify_check(code: int, report: dict) -> list[str]:
    surface = report["result"]["surface"]
    problems = _exit(code)
    if (surface["orientable"], surface["genus"]) != (True, 2):
        problems.append(f"chi -2 orientable classified as {surface['name']}")
    return problems


SETUP_PROBE = Job("classify", ("classify", "--chi", "-2", "--orientable", "true"), _classify_check)

WORKLOADS: dict[str, tuple[Job, ...]] = {
    "census-highdeg": (
        _enumerate("s2", 6, 6),
        _enumerate("rp2", 6, 4),
        _enumerate("rp2", 5, 4),
        _enumerate("s2", 7, 2, env={"WORKBENCH_LIMITS": "7,8"}),
    ),
    "census-lowdeg": (
        _enumerate("s2", 4, 8),
        _enumerate("o2", 3, 4),
        _enumerate("rp2", 4, 4, simple=False),
        _enumerate("rp2", 4, 6),
        _enumerate("torus", 4, 4),
        _enumerate("s2", 4, 6),
        Job("audit-4-6", ("parity-audit", "--dmax", "4", "--bmax", "6"), _audit_check),
    ),
    "plane": (
        Job("normalize-fan", ("normalize", "--input", "{work}/fan.json"), _normalize_check(12721)),
        Job("normalize-ladder", ("normalize", "--input", "{work}/ladder.json"), _normalize_check(494)),
        Job(
            "build-cover-fan",
            ("build-cover", "--input", "{work}/fan-normal.json", "--levels", str(FAN_ENDS)),
            _cover_check,
        ),
        Job("verify-fan", ("verify", "--restrictions", "--input", "{work}/fan-cover.json"), _verify_check),
        Job(
            "staircase-800",
            ("staircase", "--levels", str(STAIRCASE_LEVELS), "--verify"),
            _staircase_check,
        ),
        Job(
            "verify-staircase",
            ("verify", "--restrictions", "--input", "{work}/staircase.json"),
            _verify_check,
        ),
    ),
}
