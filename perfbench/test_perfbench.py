"""Self-tests of the benchmark.  Run with: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from veropinch.cli import _build_spec, build_parser  # noqa: E402
from veropinch.gapset import multipinch_gap_set  # noqa: E402

DIGESTS = json.loads(run.DIGESTS.read_text())
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_reported_metrics_match_benchmark_json():
    for section, names in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert listed == {name: run.unit_of(name) for name in names}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_every_seed_gives_valid_recorded_ops_of_one_shape():
    for name in workloads.WORKLOADS:
        universe = set(workloads.universe(name))
        passes = {seed: workloads.ops(name, seed) for seed in (1, 2, 3)}
        assert passes[1] == workloads.ops(name, 1)
        assert len({len(ops) for ops in passes.values()}) == 1
        if name != "sweep":
            assert passes[1] != passes[2]
        for ops in passes.values():
            for op in ops:
                assert op in universe
                assert workloads.key(op) in DIGESTS
                args = build_parser().parse_args(list(op))
                if op[0] == "analyze":
                    _build_spec(args)


def test_every_universe_op_has_a_digest():
    for name in workloads.WORKLOADS:
        assert all(workloads.key(op) in DIGESTS for op in workloads.universe(name))


def test_two_cold_runs_report_identical_boundary_counts():
    op = workloads.multipinch_op(3, ((1, 1, 1, 0),))
    deadline = time.monotonic() + 120
    plain = run.run_pass([op], DIGESTS, False, deadline)
    traced = [run.run_pass([op], DIGESTS, True, deadline) for _ in range(2)]
    assert plain.failures == [] and all(p.failures == [] for p in traced)
    assert traced[0].results[0].stdout == plain.results[0].stdout
    first, second = (run.layer_metrics(p)[1] for p in traced)
    assert first == second
    assert first["membership.is_member.calls"] > 0
    assert first["gapset.multipinch_gap_set.cache_hits"] > 0
    # Cache hits return the gap set again; only the miss that searched counts.
    gaps_counted = sum(
        size for _, name, *_, size in traced[0].results[0].report["edges"] if name == "gapset.multipinch_gap_set"
    )
    assert gaps_counted == len(multipinch_gap_set(_build_spec(build_parser().parse_args(list(op)))))


def test_failed_op_is_counted_not_raised():
    op = ("analyze", "--n", "2", "--d", "4", "--pinch", "3,2", "--format", "json")
    result = run.run_pass([op], DIGESTS, False, time.monotonic() + 60)
    assert len(result.results) == 1
    assert result.failures and "exit code 2" in result.failures[0]
