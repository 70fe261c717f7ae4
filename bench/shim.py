"""Traced entry point: run one coverbench CLI command with layer spans.

    python shim.py <spans.json> <cli args...>

Wraps the public functions of census, hurwitz, exhaustion, layered,
jsonio and cli once each, rebinds every wrapper wherever a coverbench
module imported the name, runs coverbench.cli.main, and writes the
aggregated spans and work counts to <spans.json> at exit. perms and
surfaces are left alone: their calls take microseconds, so a wrapper
would mostly measure itself.
"""
from __future__ import annotations

import collections
import functools
import json
import sys
import time

WRAPPED = {
    "census": (
        "enumerate_covers",
        "enumerate_shard",
        "merge_shards",
        "classify_shard",
        "parity_audit",
        "universal_base_report_dim2",
    ),
    "hurwitz": (
        "validate",
        "total_space",
        "is_connected",
        "stabilize",
        "compose_orientation_double",
        "construct_hyperelliptic",
        "construct_cyclic_rp2",
    ),
    "exhaustion": ("validate_exhaustion", "normalize", "count_ends", "is_normalized_through"),
    "layered": (
        "build_cover",
        "staircase",
        "verify_layered",
        "restriction_compatibility",
        "compose_with_staircase",
    ),
    "jsonio": (
        "loads",
        "dumps",
        "hurwitz_from_json",
        "exhaustion_from_json",
        "layered_from_json",
        "hurwitz_to_json",
        "exhaustion_to_json",
        "layered_to_json",
    ),
    "cli": ("main",),
}


def _count_shard(counts, args, result):
    counts["census.tuples"] += sum(result.counts.values())
    counts["census.classes"] += len(result.counts)


def _count_classified(counts, args, result):
    counts["census.connected_raw"] += sum(raw for _, raw, _ in result.realized)


def _count_normalize(counts, args, result):
    counts["exhaustion.pieces_in"] += len(args[0].pieces)
    counts["exhaustion.pieces_out"] += len(result.pieces)


def _count_verified(counts, args, result):
    counts["layered.blocks"] += len(args[0].blocks)


def _count_loaded(counts, args, result):
    counts["jsonio.bytes_in"] += len(args[0])


def _count_dumped(counts, args, result):
    counts["jsonio.bytes_out"] += len(result)


COUNTERS = {
    "census.enumerate_shard": _count_shard,
    "census.classify_shard": _count_classified,
    "exhaustion.normalize": _count_normalize,
    "layered.verify_layered": _count_verified,
    "jsonio.loads": _count_loaded,
    "jsonio.dumps": _count_dumped,
}


class Tracer:
    """In-memory span aggregation: calls, total and self time per name.

    Self time is a span's duration minus the durations of the wrapped
    spans directly inside it. A name re-entered while already open adds
    to calls and self time but not again to total time.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, dict[str, float]] = {}
        self.counts: collections.Counter[str] = collections.Counter()
        self._open: list[list] = []
        self._depth: dict[str, int] = {}

    def wrap(self, name: str, fn, counter=None):
        stats = self.stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._open.append(frame)
            self._depth[name] = self._depth.get(name, 0) + 1
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                self._open.pop()
                self._depth[name] -= 1
                stats["calls"] += 1
                stats["self_s"] += elapsed - frame[0]
                if self._depth[name] == 0:
                    stats["total_s"] += elapsed
                if self._open:
                    self._open[-1][0] += elapsed
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return wrapper

    def report(self) -> dict:
        return {"spans": self.stats, "counts": self.counts}


def _rebind(modules, original, wrapper) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap each function in WRAPPED and the GroupTable constructor."""
    import coverbench.cli  # noqa: F401  (imports every layer)
    from coverbench.census import GroupTable

    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "coverbench" and m]
    for layer, names in WRAPPED.items():
        module = sys.modules[f"coverbench.{layer}"]
        for fn_name in names:
            span = f"{layer}.{fn_name}"
            original = getattr(module, fn_name)
            _rebind(modules, original, tracer.wrap(span, original, COUNTERS.get(span)))
    GroupTable.__init__ = tracer.wrap("census.GroupTable", GroupTable.__init__)


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    import coverbench.cli

    import_s = time.perf_counter() - start
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    code = 2
    try:
        code = coverbench.cli.main(cli_args)
    finally:
        report = tracer.report()
        report["import_s"] = import_s
        with open(out_path, "w") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
