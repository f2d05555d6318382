"""Cold-process benchmark of the veropinch command line.

    python3 perfbench/run.py --workload sweep|multipinch|high-char|all \\
        --seed N --seconds S --trace 0|1

A workload is a list of CLI invocations ("ops") generated from the seed (see
workloads.py).  A pass runs every op once, one at a time, each in a fresh
interpreter with cold caches, exactly as a user of the ``veropinch`` command
pays for it.  Passes repeat while the next one fits in S seconds; every
metric is the median over passes.  An op fails when it exits nonzero, leaves
a traceback on stderr, reports ``"ok": false`` anywhere in its JSON, or its
stdout does not hash to the digest recorded in digests.json.  A failed op is
counted and the pass goes on.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s``,
``setup_s`` and ``peak_rss_mib``.  ``fail_ratio`` (failed over attempted ops)
is printed in the summary and carried by ``failed`` and ``attempted``.  With
``--trace 1`` every untraced pass is followed by a traced one (launch.py
wraps each cross-module call in a span), and the metrics are the per-layer
ones.  The spans of the last traced pass are written to
``.bench_build/perfbench/``.  Lines before the last are a readable summary;
the last line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
SCRATCH = ROOT / ".bench_build" / "perfbench"

# A run of one workload must exit within 180 s; an op still running at this
# point is killed and counted as failed.  ``--workload all`` gives each
# workload its own limit, so it can take up to three times as long.
HARD_LIMIT_S = 165.0

LAYER_CALLS = ("membership.layer_members", "membership._layer_codes", "membership._full_layer_codes")


def child_env() -> dict[str, str]:
    """The op's environment: the checkout's sources, and no inherited memo cap
    or interpreter settings (bytecode writing, buffering) that would change
    what is measured."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "VEROPINCH_"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class OpResult:
    op: workloads.Op
    launched: float
    exited: float
    code: int
    rss_kib: int
    stdout: bytes
    stderr: bytes
    report: dict = field(default_factory=dict)

    def failure(self, digest: str | None) -> str | None:
        """Why this op counts as failed, or None."""
        if self.code != 0:
            return f"exit code {self.code}"
        if b"Traceback" in self.stderr:
            return "traceback on stderr"
        if "main_entered" not in self.report:
            return "no report from the launcher"
        try:
            payload = json.loads(self.stdout)
        except ValueError:
            return "stdout is not JSON"
        if not _all_ok(payload):
            return '"ok": false in output'
        if digest is not None and hashlib.sha256(self.stdout).hexdigest() != digest:
            return "stdout digest mismatch" if digest else "no recorded digest"
        return None


def _all_ok(value) -> bool:
    if isinstance(value, dict):
        return value.get("ok", True) is True and all(_all_ok(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_ok(v) for v in value)
    return True


def run_op(op: workloads.Op, trace: bool, slot: str, deadline: float) -> OpResult:
    """Run one op in a fresh interpreter; kill it if it runs past ``deadline``."""
    SCRATCH.mkdir(parents=True, exist_ok=True)
    out_path, err_path, report_path = (SCRATCH / f"{slot}.{ext}" for ext in ("out", "err", "report"))
    report_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "launch.py"), str(report_path), "1" if trace else "0", *op]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
        killer = threading.Timer(max(0.0, deadline - launched), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        exited = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError):  # killed, or failed before writing its report
        report = {}
    return OpResult(
        op=op,
        launched=launched,
        exited=exited,
        code=proc.returncode,
        rss_kib=usage.ru_maxrss,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
        report=report,
    )


@dataclass
class Pass:
    attempted: int
    results: list[OpResult]
    failures: list[str]

    @property
    def wall_s(self) -> float:
        return self.results[-1].exited - self.results[0].launched

    @property
    def setup_s(self) -> float:
        return sum(r.report.get("main_entered", r.exited) - r.launched for r in self.results)

    @property
    def peak_rss_mib(self) -> float:
        return max(r.rss_kib for r in self.results) / 1024


def run_pass(ops: list[workloads.Op], digests: dict[str, str], trace: bool, deadline: float) -> Pass:
    results = []
    for i, op in enumerate(ops):
        results.append(run_op(op, trace, f"op{i}", deadline))
        if time.monotonic() >= deadline:
            break
    failures = []
    for r in results:
        why = r.failure(digests.get(workloads.key(r.op), ""))
        if why:
            failures.append(f"{'traced ' if trace else ''}{workloads.key(r.op)}: {why}")
    failures.extend(f"{workloads.key(op)}: not run, time limit reached" for op in ops[len(results):])
    return Pass(len(ops), results, failures)


def layer_metrics(p: Pass) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer times, and counts that repeat exactly, of one traced pass."""
    times: dict[str, float] = {}
    counts: dict[str, float] = {}

    def add(table, name, value):
        table[name] = table.get(name, 0) + value

    gaps = yield_calls = 0
    for r in p.results:
        add(counts, "cli.stdout_bytes", len(r.stdout))
        add(counts, "gapset.multipinch_gap_set.cache_hits", r.report.get("multipinch_gap_set_cache_hits", 0))
        for parent, name, calls, total_s, self_s, size in r.report.get("edges", []):
            layer = name.split(".", 1)[0]
            if name == "cli.main":
                add(times, "cli.self_s", self_s)
                add(times, "cli.main.total_s", total_s)
                continue
            add(counts, f"{layer}.calls", calls)
            add(times, f"{layer}.self_s", self_s)
            if name in LAYER_CALLS:
                add(counts, "membership.layer.calls", calls)
                add(times, "membership.layer.self_s", self_s)
                add(counts, "membership.layer.codes", size)
            elif name == "membership.is_member":
                add(counts, "membership.is_member.calls", calls)
                add(times, "membership.is_member.self_s", self_s)
                if parent == "charp.frobenius_on_cokernel":
                    add(times, "membership.is_member.in_frobenius_on_cokernel.self_s", self_s)
                if parent == "gapset.multipinch_gap_set":
                    yield_calls += calls
            elif name == "gapset.multipinch_gap_set":
                gaps += size
            elif name == "charp.frobenius_on_cokernel":
                add(counts, "charp.trace_steps", size)
    counts["gapset.multipinch.gap_yield"] = gaps / yield_calls if yield_calls else 0.0
    return times, counts


PER_LAYER_TIMES = (
    "membership.layer.self_s",
    "membership.is_member.self_s",
    "gapset.self_s",
    "charp.self_s",
    "classify.self_s",
    "lattice.self_s",
    "cli.self_s",
)
# Shares of the traced time inside cli.main, printed in the summary to show
# which layer does a workload's work; not reported as metrics.
SHARES = (
    "membership.layer.self_s",
    "membership.is_member.self_s",
    "membership.is_member.in_frobenius_on_cokernel.self_s",
)
PER_LAYER_COUNTS = (
    "gapset.multipinch.gap_yield",
    "membership.layer.calls",
    "membership.layer.codes",
    "membership.is_member.calls",
    "gapset.calls",
    "gapset.multipinch_gap_set.cache_hits",
    "charp.calls",
    "charp.trace_steps",
    "classify.calls",
    "lattice.calls",
    "cli.stdout_bytes",
)
PER_LAYER = PER_LAYER_TIMES + PER_LAYER_COUNTS + ("trace.overhead_ratio",)
END_TO_END = ("wall_s", "setup_s", "peak_rss_mib")
UNITS = {
    "peak_rss_mib": "MiB",
    "cli.stdout_bytes": "bytes",
    "gapset.multipinch.gap_yield": "gaps/call",
    "trace.overhead_ratio": "ratio",
}


def unit_of(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


@dataclass
class Outcome:
    workload: str
    seed: int
    ops: list[workloads.Op]
    plain: list[Pass]
    traced: list[Pass]
    problems: list[str]  # inconsistencies that are not a failed op

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.plain + self.traced)

    @property
    def failures(self) -> list[str]:
        return [f for p in self.plain + self.traced for f in p.failures]

    def end_to_end(self) -> dict[str, float]:
        return {name: statistics.median(getattr(p, name) for p in self.plain) for name in END_TO_END}

    def traced_times(self, name: str) -> float:
        return statistics.median(layer_metrics(p)[0].get(name, 0.0) for p in self.traced)

    def shares(self) -> dict[str, float]:
        total = self.traced_times("cli.main.total_s")
        return {name: self.traced_times(name) / total for name in SHARES}

    def per_layer(self) -> dict[str, float]:
        out = {name: self.traced_times(name) for name in PER_LAYER_TIMES}
        counts = layer_metrics(self.traced[0])[1]
        out.update((name, counts.get(name, 0)) for name in PER_LAYER_COUNTS)
        traced_wall = statistics.median(p.wall_s for p in self.traced)
        out["trace.overhead_ratio"] = traced_wall / self.end_to_end()["wall_s"] - 1
        return out


def measure(workload: str, seed: int, seconds: float, trace: bool, digests: dict[str, str], deadline: float) -> Outcome:
    ops = workloads.ops(workload, seed)
    # Untimed warm-up: byte-compiles the sources into the pycache prefix once.
    run_op(("--help",), False, "warmup", deadline)
    outcome = Outcome(workload, seed, ops, [], [], [])
    start = time.monotonic()
    while True:
        outcome.plain.append(run_pass(ops, digests, False, deadline))
        if trace:
            outcome.traced.append(run_pass(ops, digests, True, deadline))
        elapsed = time.monotonic() - start
        per_round = elapsed / len(outcome.plain)
        if time.monotonic() + per_round >= deadline or elapsed + per_round > seconds:
            break
    if trace:
        counts = [layer_metrics(p)[1] for p in outcome.traced]
        if any(c != counts[0] for c in counts[1:]):
            outcome.problems.append("boundary call counts differ between cold traced passes")
        write_trace(outcome)
    return outcome


def write_trace(outcome: Outcome) -> None:
    last = outcome.traced[-1]
    path = SCRATCH / f"trace-{outcome.workload}-seed{outcome.seed}.json"
    path.write_text(
        json.dumps(
            {
                "workload": outcome.workload,
                "seed": outcome.seed,
                "ops": [
                    {
                        "argv": list(r.op),
                        "edges": r.report.get("edges", []),
                        "spans": r.report.get("spans", []),
                    }
                    for r in last.results
                ],
            }
        )
    )


def summary_lines(outcome: Outcome, metrics: dict[str, float]) -> list[str]:
    failed = len(outcome.failures)
    lines = [
        f"workload {outcome.workload}  seed {outcome.seed}  ops/pass {len(outcome.ops)}  "
        f"passes {len(outcome.plain)} untraced, {len(outcome.traced)} traced",
    ]
    lines += [f"  {name:56s} {value:14.6g} {unit_of(name)}" for name, value in metrics.items()]
    if outcome.traced:
        lines += [f"  share of traced cli.main time  {name:54s} {share:6.1%}" for name, share in outcome.shares().items()]
    lines.append(f"  {'fail_ratio':56s} {failed / outcome.attempted:14.6g} failed/attempted ({failed}/{outcome.attempted})")
    lines += [f"  FAILED {f}" for f in outcome.failures]
    lines += [f"  INCORRECT {p}" for p in outcome.problems]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "veropinch" / "cli.py").is_file():
        print(f"error: no veropinch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    digests = json.loads(DIGESTS.read_text())
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        deadline = time.monotonic() + HARD_LIMIT_S
        outcome = measure(name, args.seed, args.seconds, bool(args.trace), digests, deadline)
        values = outcome.per_layer() if args.trace else outcome.end_to_end()
        for line in summary_lines(outcome, values):
            print(line)
        prefix = f"{name}." if args.workload == "all" else ""
        result["metrics"].update({prefix + k: {"value": v, "unit": unit_of(k)} for k, v in values.items()})
        result["attempted"] += outcome.attempted
        result["failed"] += len(outcome.failures)
        result["correct"] &= not outcome.failures and not outcome.problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
