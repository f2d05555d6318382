"""Run one veropinch CLI invocation in this fresh interpreter and report on it.

    python3 perfbench/launch.py REPORT TRACE ARG...

Imports ``veropinch.cli``, notes the monotonic time at which ``cli.main`` is
entered (the parent subtracts its own launch time to get interpreter start
plus import), then calls ``cli.main(ARG...)``.  With TRACE=1 it first wraps,
in place, every function that one veropinch module imports from another and
``cli.main`` itself; each wrapper opens a span.  The report is written as
JSON to REPORT when ``main`` returns or raises.  Stdout carries only the
program's own output, so its digest is the same traced or not.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import time
from time import perf_counter

LAYERS = ("lattice", "membership", "gapset", "classify", "charp", "cli")

# Individual span records kept per (parent, name) edge; later calls on a
# busy edge (is_member under multipinch_gap_set runs ~420k times) are only
# counted and summed, so memory stays bounded.
SPAN_RECORDS_PER_EDGE = 16

# Result sizes worth counting at a boundary: layer codes enumerated, gaps
# found, Frobenius trace steps produced.
RESULT_SIZES = {
    "membership.layer_members": len,
    "membership._layer_codes": len,
    "membership._full_layer_codes": len,
    "gapset.multipinch_gap_set": len,
    "charp.frobenius_on_cokernel": lambda trace: len(trace.action),
}

# Result sizes counted only when the call missed the function's lru_cache: a
# hit returns the gap set without searching for it again, so counting it would
# make gap_yield follow how often callers repeat the call.
SIZE_ON_MISS_ONLY = {"gapset.multipinch_gap_set"}


class Tracer:
    """Nested spans at module boundaries, aggregated per (parent, name) edge."""

    def __init__(self) -> None:
        # (parent name, name) -> [calls, total_s, self_s, summed result size]
        self.edges: dict[tuple[str, str], list] = {}
        # (span id, parent span id, name, start, end), monotonic perf_counter seconds
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._frames: list[list] = [["", 0.0, 0]]  # name, child time, span id
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn):
        edges, spans, frames, ids = self.edges, self.spans, self._frames, self._ids
        size = RESULT_SIZES.get(name)
        cache_info = fn.cache_info if name in SIZE_ON_MISS_ONLY else None

        def span(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            parent = frames[-1]
            frame = [name, 0.0, next(ids)]
            frames.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                frames.pop()
                parent[1] += elapsed
                edge = edges.get((parent[0], name))
                if edge is None:
                    edge = edges[(parent[0], name)] = [0, 0.0, 0.0, 0]
                edge[0] += 1
                edge[1] += elapsed
                edge[2] += elapsed - frame[1]
                if edge[0] <= SPAN_RECORDS_PER_EDGE:
                    spans.append((frame[2], parent[2], name, start, start + elapsed))
            if size is not None and (cache_info is None or cache_info().misses > misses):
                edge[3] += size(result)
            return result

        return span

    def install(self):
        """Wrap cross-module imports in every layer; return the wrapped ``cli.main``.

        Classes are left alone (wrapping them would break isinstance checks),
        and a generator function's span covers only the call that creates it.
        """
        modules = [importlib.import_module(f"veropinch.{layer}") for layer in LAYERS]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                owner = getattr(obj, "__module__", None) or ""
                if (
                    isinstance(obj, type)
                    or not callable(obj)
                    or not owner.startswith("veropinch.")
                    or owner == module.__name__
                ):
                    continue
                layer = owner.rsplit(".", 1)[1]
                setattr(module, attr, self.wrap(f"{layer}.{obj.__name__}", obj))
        return self.wrap("cli.main", modules[-1].main)

    def report(self) -> dict:
        return {
            "edges": [[parent, name, *vals] for (parent, name), vals in sorted(self.edges.items())],
            "spans": self.spans,
        }


def main() -> None:
    report_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import veropinch.cli

    report: dict = {"main_entered": time.monotonic()}
    tracer = Tracer() if trace else None
    entry = tracer.install() if tracer else veropinch.cli.main
    try:
        code = entry(argv)
    finally:
        if tracer:
            from veropinch.gapset import multipinch_gap_set

            report.update(tracer.report())
            report["multipinch_gap_set_cache_hits"] = multipinch_gap_set.cache_info().hits
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
