"""coverbench benchmark: the CLI timed end to end, and layer by layer in a
separate traced run.

    python3 bench/run.py --workload census-highdeg --seed 1 --seconds 36 --trace 0

Every job is one `python -m coverbench.cli` child on this checkout's src,
run strictly one at a time (closed loop, one client). With --trace 0 the
jobs repeat in passes for --seconds and the end-to-end metrics are
printed; with --trace 1 one plain pass and one pass through shim.py
give the per-layer metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build"

# Per-child guards, applied in the child only: a memory or run-time
# regression ends as a counted failure instead of starving the machine.
ADDRESS_SPACE_CAP = 5 << 30
CPU_SECONDS_CAP = 60
SETUP_PROBES = 7


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS_CAP, CPU_SECONDS_CAP))


@dataclass
class JobResult:
    wall_s: float
    rss_mb: float
    cpu_s: float
    spans: dict | None


class Runner:
    """Runs jobs one at a time in fresh children and checks each report."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0

    def run(self, job, traced: bool = False) -> JobResult:
        argv = [a.format(work=self.workdir) for a in job.argv]
        out, err = self.workdir / "stdout.json", self.workdir / "stderr.txt"
        spans_path = self.workdir / "spans.json"
        if traced:
            spans_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH / "shim.py"), str(spans_path), *argv]
        else:
            cmd = [sys.executable, "-m", "coverbench.cli", *argv]
        with open(out, "wb") as fout, open(err, "wb") as ferr:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd,
                stdout=fout,
                stderr=ferr,
                env={**self.env, **job.env},
                cwd=self.workdir,
                preexec_fn=_limit_child,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        self.attempted += 1
        problems = self._check(job, proc.returncode, out)
        if problems:
            self.failed += 1
            tail = err.read_text(errors="replace").strip().splitlines()[-3:]
            print(f"job {job.id} failed: {'; '.join(problems + tail)}", file=sys.stderr)
        spans = json.loads(spans_path.read_text()) if traced and spans_path.exists() else None
        return JobResult(wall, usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime, spans)

    @staticmethod
    def _check(job, code: int, out: Path) -> list[str]:
        try:
            report = json.loads(out.read_text())
            return job.check(code, report)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"exit code {code}, unreadable report ({type(exc).__name__}: {exc})"]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _job_medians(passes: list[list[JobResult]], field: str) -> list[float]:
    return [statistics.median(getattr(p[i], field) for p in passes) for i in range(len(passes[0]))]


def end_to_end(runner: Runner, jobs, probe, seconds: float) -> dict:
    """Set-up probes, then passes over the job list until the next pass
    would overrun `seconds`. Each job's figures are its median over the
    passes."""
    start = time.perf_counter()
    runner.run(probe)  # warm-up: fills the bytecode cache, not counted
    setup = [runner.run(probe).wall_s for _ in range(SETUP_PROBES)]
    passes, longest = [], 0.0
    while True:
        t = time.perf_counter()
        passes.append([runner.run(job) for job in jobs])
        longest = max(longest, time.perf_counter() - t)
        if time.perf_counter() - start + longest > seconds:
            break
    return {
        "wall_s": _metric(sum(_job_medians(passes, "wall_s")), "s"),
        "peak_rss_mb": _metric(max(_job_medians(passes, "rss_mb")), "MB"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "ok_ratio": _metric((runner.attempted - runner.failed) / runner.attempted, "ratio"),
    }


def _span_sum(results: list[JobResult], names, field: str = "self_s") -> float:
    return sum(r.spans["spans"][n][field] for r in results if r.spans for n in names)


def _count(results: list[JobResult], name: str) -> int:
    return sum(r.spans["counts"].get(name, 0) for r in results if r.spans)


def per_layer(runner: Runner, jobs, all_jobs) -> dict:
    """One plain pass and one traced pass. Layer times are self times
    summed over the traced pass; per-job figures come from the plain pass."""
    plain = [runner.run(job) for job in jobs]
    traced = [runner.run(job, traced=True) for job in jobs]

    def span_s(*names):
        return _metric(_span_sum(traced, names), "s")

    def calls(name):
        return _metric(_span_sum(traced, [name], "calls"), "count")

    def count(name, unit="count"):
        return _metric(_count(traced, name), unit)

    tuples = _count(traced, "census.tuples")
    imports = [r.spans["import_s"] for r in traced if r.spans]
    metrics = {
        "cli.import_s": _metric(statistics.median(imports) if imports else 0.0, "s"),
        "cli.self_s": span_s("cli.main"),
        "cli.cpu_s": _metric(sum(r.cpu_s for r in plain), "s"),
        "census.table_s": span_s("census.GroupTable"),
        "census.table_calls": calls("census.GroupTable"),
        "census.shard_self_s": span_s("census.enumerate_shard"),
        "census.classify_self_s": span_s("census.classify_shard"),
        "census.tuples": count("census.tuples"),
        "census.classes": count("census.classes"),
        "census.useful_ratio": _metric(
            _count(traced, "census.connected_raw") / tuples if tuples else 0.0, "ratio"
        ),
    }
    for fn in ("total_space", "validate", "is_connected"):
        metrics[f"hurwitz.{fn}_s"] = span_s(f"hurwitz.{fn}")
        metrics[f"hurwitz.{fn}_calls"] = calls(f"hurwitz.{fn}")
    metrics.update(
        {
            "exhaustion.normalize_s": span_s("exhaustion.normalize"),
            "exhaustion.validate_s": span_s("exhaustion.validate_exhaustion"),
            "exhaustion.pieces_in": count("exhaustion.pieces_in"),
            "exhaustion.pieces_out": count("exhaustion.pieces_out"),
            "layered.build_s": span_s("layered.build_cover"),
            "layered.staircase_s": span_s("layered.staircase"),
            "layered.verify_s": span_s("layered.verify_layered"),
            "layered.restriction_s": span_s("layered.restriction_compatibility"),
            "layered.restriction_calls": calls("layered.restriction_compatibility"),
            "layered.blocks": count("layered.blocks"),
            "jsonio.loads_s": span_s("jsonio.loads"),
            "jsonio.dumps_s": span_s("jsonio.dumps"),
            "jsonio.decode_s": span_s(
                "jsonio.hurwitz_from_json", "jsonio.exhaustion_from_json", "jsonio.layered_from_json"
            ),
            "jsonio.encode_s": span_s(
                "jsonio.hurwitz_to_json", "jsonio.exhaustion_to_json", "jsonio.layered_to_json"
            ),
            "jsonio.bytes_in": count("jsonio.bytes_in", "bytes"),
            "jsonio.bytes_out": count("jsonio.bytes_out", "bytes"),
            "trace.overhead_ratio": _metric(
                sum(r.wall_s for r in traced) / sum(r.wall_s for r in plain), "ratio"
            ),
        }
    )
    by_id = {job.id: result for job, result in zip(jobs, plain)}
    for job in all_jobs:
        result = by_id.get(job.id)
        metrics[f"job.{job.id}.wall_s"] = _metric(result.wall_s if result else 0.0, "s")
        metrics[f"job.{job.id}.rss_mb"] = _metric(result.rss_mb if result else 0.0, "MB")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coverbench" / "cli.py").is_file():
        print(f"error: no coverbench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from inputs import write_plane_inputs
    from workloads import SETUP_PROBE, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    jobs = WORKLOADS[args.workload]
    workdir = WORK_ROOT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "plane":
            write_plane_inputs(workdir, args.seed)
        runner = Runner(workdir)
        if args.trace:
            all_jobs = [job for w in WORKLOADS.values() for job in w]
            metrics = per_layer(runner, jobs, all_jobs)
        else:
            metrics = end_to_end(runner, jobs, SETUP_PROBE, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>14.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
