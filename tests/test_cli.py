"""Command-line surface: formats, determinism, exit codes."""

import json
import marshal
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import pytest

from veropinch import ResourceLimitError
from veropinch.cli import EXIT_INTERNAL, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, _usable_cpus, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_interior_pinch_json(self, capsys):
        code, out, err = run(
            capsys,
            "analyze", "--n", "3", "--d", "3", "--pinch", "1,1,1",
            "--char", "2,7", "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["schema"] == "1"
        assert payload["classification"]["depth"] == 1
        assert payload["classification"]["cohen_macaulay"] is False
        assert [f["type"] for f in payload["frobenius"]] == ["F-nilpotent", "F-nilpotent"]
        assert payload["verification"]["gap_equivalence"]["ok"] is True

    def test_gorenstein_pinch(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--n", "2", "--d", "4", "--pinch", "3,1", "--format", "json"
        )
        payload = json.loads(out)
        assert code == EXIT_OK
        cls = payload["classification"]
        assert cls["cohen_macaulay"] is True
        assert cls["gorenstein"] == "yes"
        assert cls["a_invariant"] == 0

    def test_fte_exact_one_reported(self, capsys):
        code, out, _ = run(
            capsys,
            "analyze", "--n", "2", "--d", "4", "--pinch", "3,1",
            "--char", "3", "--format", "json",
        )
        payload = json.loads(out)
        fte = payload["frobenius"][0]["fte"]
        assert fte["kind"] == "exact" and fte["value"] == 1

    def test_multipinch_path(self, capsys):
        code, out, _ = run(
            capsys,
            "analyze", "--n", "3", "--d", "3", "--remove", "1,1,1",
            "--multipinch", "--format", "json",
        )
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["spec"]["kind"] == "multi-pinch"
        assert payload["gap"]["members"] == [[1, 1, 1]]
        assert payload["classification"]["depth"] == 1
        assert any("Cohen-Macaulay rings in general is open" in c for c in payload["caveats"])

    def test_open_questions_surface_as_caveats(self, capsys):
        _, out, _ = run(
            capsys,
            "analyze", "--n", "4", "--d", "2", "--pinch", "1,1,0,0",
            "--char", "5", "--format", "json",
        )
        payload = json.loads(out)
        caveats = "\n".join(payload["caveats"])
        assert "F-purity" in caveats
        assert "test exponent" in caveats

    def test_json_round_trips(self, capsys):
        _, out, _ = run(
            capsys, "analyze", "--n", "2", "--d", "5", "--pinch", "4,1",
            "--char", "2", "--format", "json",
        )
        payload = json.loads(out)
        assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out

    def test_deterministic_output(self, capsys):
        argv = ("analyze", "--n", "3", "--d", "4", "--pinch", "2,1,1",
                "--char", "2,3", "--format", "json")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_invalid_spec_exits_two(self, capsys):
        code, out, err = run(capsys, "analyze", "--n", "2", "--d", "4", "--pinch", "2,1")
        assert code == EXIT_USAGE
        assert "error" in err

    @pytest.mark.parametrize("flag, value", [("--n", "x"), ("--n", "2..x"), ("--d", "3..")])
    def test_unparsable_verify_range_exits_two(self, capsys, flag, value):
        code, _, err = run(capsys, "verify", flag, value)
        assert code == EXIT_USAGE
        assert "cannot parse range" in err

    def test_verify_range_is_not_materialized(self):
        # the sweeps only iterate their ranges, so a huge one costs nothing to parse
        from veropinch.cli import _parse_range

        assert _parse_range("2..4") == range(2, 5)
        assert _parse_range("3") == range(3, 4)
        assert len(_parse_range("2..1000000000000")) == 999_999_999_999

    @pytest.mark.parametrize(
        "argv",
        [
            ("gaps", "--n", "2", "--d", "2", "--pinch", "1,1", "--bound", "-3"),
            ("analyze", "--n", "2", "--d", "2", "--pinch", "1,1", "--tmax", "0"),
            ("verify", "--tmax", "0"),
            ("verify", "--tmax", "x"),
        ],
        ids=["gaps-bound", "analyze-tmax", "verify-tmax", "verify-tmax-not-int"],
    )
    def test_out_of_range_bound_rejected_at_parse_time(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_USAGE
        assert f"argument {argv[-2]}" in capsys.readouterr().err

    def test_missing_pinch_exits_two(self, capsys):
        code, _, err = run(capsys, "analyze", "--n", "2", "--d", "4")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["analyze", "--n", "2", "--d", "4", "--pinch", "3,1", "--char", "4"], "must be prime"),
            (["analyze", "--n", "2", "--d", "4", "--pinch", "3,1", "--char", "2,x"], "invalid literal"),
            (["verify", "--frobenius", "--chars", "2,9"], "must be prime"),
        ],
        ids=["composite", "non-integer", "verify-composite"],
    )
    def test_bad_prime_rejected_at_parse_time(self, capsys, argv, message):
        # argparse reports the reason, not just the name of the parser
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["analyze", "--n", "2", "--d", "3", "--pinch", "2,1", "--multipinch"],
             "--multipinch goes with --remove, not --pinch"),
            (["gaps", "--n", "2", "--d", "4", "--pinch", "2,x"],
             "cannot parse vector '2,x': comma-separated integers expected"),
            (["verify", "--n", "3..2"], "empty range '3..2'"),
        ],
        ids=["pinch-with-multipinch", "unparsable-pinch", "empty-range"],
    )
    def test_spec_error_message(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: {message}\n"

    def test_pinch_and_remove_conflict(self, capsys):
        code, _, err = run(
            capsys, "analyze", "--n", "2", "--d", "4", "--pinch", "2,2", "--remove", "3,1"
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "cap, message",
        [
            ("4", "the degree-3 slice of N^3 has 10 vectors"),
            ("20", "layer 2 of single-pinch n=3, d=3, removed (1, 1, 1) has 28 vectors"),
        ],
        ids=["slice", "layer"],
    )
    def test_resource_failure_exits_three(self, capsys, monkeypatch, cap, message):
        # with every cache cold, the cap stops the first thing it bounds: the
        # slice's 10 vectors at cap 4, layer 2's 28 vectors at cap 20
        from veropinch import reset_membership_cache
        from veropinch.lattice import veronese_generators

        monkeypatch.setenv("VEROPINCH_MEMO_CAP", cap)
        veronese_generators.cache_clear()
        reset_membership_cache()
        code, _, err = run(
            capsys, "analyze", "--n", "3", "--d", "3", "--pinch", "1,1,1", "--char", "5"
        )
        assert code == EXIT_RESOURCE
        assert "resource" in err and message in err
        monkeypatch.delenv("VEROPINCH_MEMO_CAP")
        reset_membership_cache()

    def test_layer_cap_bounds_brute_force_enumeration(self, capsys, monkeypatch):
        # layer 2 at n=4 d=5 has C(13, 3) = 286 vectors, above a cap of 100
        from veropinch import reset_membership_cache

        monkeypatch.setenv("VEROPINCH_MEMO_CAP", "100")
        reset_membership_cache()
        code, _, err = run(capsys, "analyze", "--n", "4", "--d", "5", "--pinch", "2,2,1,0")
        assert code == EXIT_RESOURCE
        assert err.startswith("resource limit: layer 2")
        monkeypatch.delenv("VEROPINCH_MEMO_CAP")
        reset_membership_cache()

    def test_ten_variables_answer_under_the_default_cap(self, capsys):
        # a mask over the whole cube of layer 5 would need 17**9 bits here
        code, out, _ = run(
            capsys, "analyze", "--n", "10", "--d", "2",
            "--pinch", "1,1,0,0,0,0,0,0,0,0", "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["verification"]["gap_equivalence"]["ok"] is True

    def test_gap_listing_cap_exits_three(self, capsys, monkeypatch):
        # the odd-odd family up to degree 40 has 20 * 21 / 2 = 210 members
        monkeypatch.setenv("VEROPINCH_MEMO_CAP", "100")
        code, out, err = run(
            capsys, "gaps", "--n", "3", "--d", "2", "--pinch", "1,1,0", "--bound", "40"
        )
        assert code == EXIT_RESOURCE
        assert out == ""
        assert "up to degree 40 has 210 vectors" in err

    def test_nonpositive_memo_cap_exits_two(self, capsys, monkeypatch):
        from veropinch import reset_membership_cache

        monkeypatch.setenv("VEROPINCH_MEMO_CAP", "0")
        reset_membership_cache()
        code, out, err = run(capsys, "analyze", "--n", "3", "--d", "3", "--pinch", "1,1,1")
        monkeypatch.delenv("VEROPINCH_MEMO_CAP")
        reset_membership_cache()
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: VEROPINCH_MEMO_CAP must be positive, got 0\n"

    def test_slice_over_the_cap_exits_three_before_it_is_built(self, capsys, monkeypatch):
        # the degree-10 slice of N^30 has C(39, 29) = 635,745,396 vectors;
        # a cap of 0 is still a usage error, read before the slice's size
        code, out, err = run(capsys, "gaps", "--n", "30", "--d", "10")
        assert code == EXIT_RESOURCE
        assert out == ""
        assert err == (
            "resource limit: the degree-10 slice of N^30 has 635745396 vectors, "
            "above the VEROPINCH_MEMO_CAP cap 10000000\n"
        )
        monkeypatch.setenv("VEROPINCH_MEMO_CAP", "0")
        code, out, err = run(capsys, "gaps", "--n", "30", "--d", "10")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: VEROPINCH_MEMO_CAP must be positive, got 0\n"

    def test_gap_discrepancy_exits_one(self, capsys, monkeypatch):
        import veropinch.cli as cli
        from veropinch import ExponentVector
        from veropinch.cli import EXIT_VERIFICATION

        def disagreeing(spec, t_max):
            return (False, (ExponentVector((5, 1)),))

        monkeypatch.setattr(cli, "verify_gap_equivalence", disagreeing)
        code, out, _ = run(
            capsys, "analyze", "--n", "2", "--d", "4", "--pinch", "3,1", "--format", "json"
        )
        assert code == EXIT_VERIFICATION
        verification = json.loads(out)["verification"]
        assert verification["gap_equivalence"] == {
            "t_max": 6, "ok": False, "discrepancies": [[5, 1]],
        }
        assert verification["principality"]["ok"] is True

    def test_principality_failure_exits_one(self, capsys, monkeypatch):
        import veropinch.gapset as gapset
        from veropinch.cli import EXIT_VERIFICATION

        monkeypatch.setattr(gapset, "is_member", lambda e, spec: False)
        code, out, _ = run(
            capsys, "analyze", "--n", "2", "--d", "4", "--pinch", "3,1", "--format", "json"
        )
        assert code == EXIT_VERIFICATION
        verification = json.loads(out)["verification"]
        assert verification["gap_equivalence"]["ok"] is True
        # (3,1) itself is the generator; every later gap (4s-1, 1) is
        # (3,1) plus a point that the patched membership now rejects
        assert verification["principality"] == {
            "max_degree": 24,
            "ok": False,
            "counterexamples": [[4 * s - 1, 1] for s in range(2, 7)],
        }

    def test_internal_consistency_failure_exits_four(self, capsys, monkeypatch):
        # a coordinate bound of 1 makes the gap (1,1,1) contradict the
        # theorem the multipinch search checks
        import veropinch.gapset as gapset

        monkeypatch.setattr(gapset, "multipinch_coordinate_bound", lambda n, d: 1)
        gapset.multipinch_gap_set.cache_clear()
        code, out, err = run(
            capsys, "analyze", "--n", "3", "--d", "3", "--remove", "1,1,1", "--multipinch"
        )
        gapset.multipinch_gap_set.cache_clear()
        assert code == EXIT_INTERNAL
        assert out == ""
        assert err.startswith("internal error: ")
        assert "coordinate bound 1" in err
        assert "Traceback" not in err

    def test_coordinate_bound_failure_exits_one(self, capsys, monkeypatch):
        # only the CLI's own bound is patched: the multipinch search still
        # finds the gap (1,1,1), which the verification then rejects
        import veropinch.cli as cli
        from veropinch.cli import EXIT_VERIFICATION

        monkeypatch.setattr(cli, "multipinch_coordinate_bound", lambda n, d: 1)
        code, out, _ = run(
            capsys, "analyze", "--n", "3", "--d", "3", "--remove", "1,1,1",
            "--multipinch", "--format", "json",
        )
        assert code == EXIT_VERIFICATION
        payload = json.loads(out)
        assert payload["verification"] == {"coordinate_bound": {"bound": 1, "ok": False}}
        assert payload["gap"]["coordinate_bound"] == 1

    @pytest.mark.parametrize(
        "argv, traces",
        [
            (("--n", "2", "--d", "3", "--pinch", "3,0", "--char", "2,3"), [None, None]),
            (("--n", "3", "--d", "3", "--remove", "1,1,1", "--multipinch", "--char", "2"),
             [{"nilpotency_index": 1}]),
            (("--n", "2", "--d", "4", "--pinch", "3,1", "--char", "3"),
             [{"killed": 6, "nilpotency_index": 1, "traced": 6, "truncation_degree": 24}]),
        ],
        ids=["saturated", "multipinch", "line"],
    )
    def test_cokernel_trace_per_prime(self, capsys, argv, traces):
        # a saturated pinch has nothing to trace; a multipinch reports its
        # HSL number; a single pinch reports its truncated trace
        code, out, _ = run(capsys, "analyze", *argv, "--format", "json")
        assert code == EXIT_OK
        frobenius = json.loads(out)["frobenius"]
        assert [f.get("cokernel_trace") for f in frobenius] == traces
        for f in frobenius:
            if "cokernel_trace" in f:
                assert f["cokernel_trace"]["nilpotency_index"] == f["hsl"]

    @pytest.mark.parametrize("error", [RecursionError, MemoryError])
    def test_interpreter_resource_errors_exit_three(self, capsys, monkeypatch, error):
        import veropinch.cli as cli

        def exhausted(args):
            raise error()

        monkeypatch.setattr(cli, "cmd_gaps", exhausted)
        code, out, err = run(capsys, "gaps", "--n", "2", "--d", "2", "--pinch", "1,1")
        assert code == EXIT_RESOURCE
        assert out == ""
        assert err == f"resource limit: {error.__name__}\n"


class TestGaps:
    def test_odd_odd_listing(self, capsys):
        code, out, _ = run(
            capsys,
            "gaps", "--n", "2", "--d", "2", "--pinch", "1,1",
            "--bound", "8", "--format", "json",
        )
        payload = json.loads(out)
        assert code == EXIT_OK
        assert len(payload["members"]) == 10
        assert payload["family"] == {"family": "odd-odd", "axes": [1, 2], "d": 2}

    def test_finite_gap(self, capsys):
        code, out, _ = run(
            capsys,
            "gaps", "--n", "2", "--d", "4", "--pinch", "2,2",
            "--bound", "40", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["members"] == [[2, 2]]
        assert payload["complete"] is True

    def test_saturated_pinch_empty(self, capsys):
        code, out, _ = run(
            capsys,
            "gaps", "--n", "2", "--d", "4", "--pinch", "4,0",
            "--bound", "20", "--format", "json",
        )
        assert json.loads(out)["members"] == []

    def test_no_removal_empty(self, capsys):
        code, out, _ = run(capsys, "gaps", "--n", "2", "--d", "4", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["members"] == []


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "2..3", "--d", "2..3", "--tmax", "4",
            "--chars", "2,3",
        )
        assert code == EXIT_OK
        assert "all pass" in out

    def test_socle_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "--socle", "--d", "3..8")
        assert code == EXIT_OK
        assert out.count("[pass] socle") == 6

    def test_frobenius_sweep_json(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--frobenius", "--n", "2..3", "--d", "2..3",
            "--chars", "2,3", "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["ok"] is True
        assert all(row["ok"] for row in payload["results"])

    def test_frobenius_sweep_traces_to_tmax(self, capsys, monkeypatch, tmp_path):
        # the traces run in the sweep's workers, so each is recorded in a file
        from veropinch import cli

        log = tmp_path / "traces"
        log.touch()
        trace = cli.frobenius_on_cokernel

        def recording(spec, p, truncation):
            with open(log, "a") as fh:
                fh.write(f"{truncation} {spec.d}\n")
            return trace(spec, p, truncation)

        monkeypatch.setattr(cli, "frobenius_on_cokernel", recording)
        code, _, _ = run(
            capsys, "verify", "--frobenius", "--n", "2..3", "--d", "2..3", "--tmax", "3",
            "--chars", "2,3",
        )
        seen = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        assert code == EXIT_OK
        assert seen and all(truncation == 3 * d for truncation, d in seen)

    def test_parity_break_is_a_failed_row(self, capsys, monkeypatch):
        # both engines agree that every image is a member, so the quadratic
        # pinch dies at p = 3, against the parity rule
        import veropinch.charp as charp
        from veropinch import GapSet
        from veropinch.cli import EXIT_VERIFICATION

        monkeypatch.setattr(GapSet, "contains", lambda self, v: False)
        monkeypatch.setattr(charp, "is_member", lambda e, spec: True)
        code, out, err = run(capsys, "verify", "--frobenius", "--n", "2", "--d", "2", "--chars", "3")
        assert code == EXIT_VERIFICATION
        assert out == (
            "[FAIL] frobenius          n=2 d=2 m=(1, 1) p=3  (persists)\n"
            "FAILURES: 0/1 checks\n"
        )
        assert err == ""

    def test_multipinch_sweep(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--multipinch", "--n", "2..3", "--d", "3..4", "--tmax", "5"
        )
        assert code == EXIT_OK

    def test_socle_sweep_at_degree_two_is_empty(self, capsys):
        # the plane pinch of (1, 1) is a polynomial ring: it has no socle row
        code, out, _ = run(capsys, "verify", "--socle", "--d", "2")
        assert (code, out) == (EXIT_OK, "all pass: 0/0 checks\n")

    def test_socle_sweep_refuses_degree_below_two(self, capsys):
        code, out, err = run(capsys, "verify", "--socle", "--d", "0..2")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: need degree at least 2, got d=0\n"

    def test_multipinch_sweep_at_degree_two_is_empty(self, capsys):
        # every generator of degree 2 has an entry >= d-1 = 1, so none is removable
        code, out, _ = run(capsys, "verify", "--multipinch", "--n", "2..4", "--d", "2")
        assert (code, out) == (EXIT_OK, "all pass: 0/0 checks\n")

    def test_multipinch_sweep_refuses_degree_one(self, capsys):
        code, _, err = run(capsys, "verify", "--multipinch", "--n", "3", "--d", "1")
        assert code == EXIT_USAGE
        assert "need degree at least 2, got d=1" in err

    def test_discrepancy_exits_one(self, capsys, monkeypatch):
        from veropinch import cli
        from veropinch.cli import EXIT_VERIFICATION

        def broken_sweep(ds):
            return [("socle", "n=2 d=3", False, "forced")]

        monkeypatch.setattr(cli, "_sweep_socle", broken_sweep)
        code, out, _ = run(capsys, "verify", "--socle", "--d", "3..4")
        assert code == EXIT_VERIFICATION
        assert "FAIL" in out


def _run_cli(argv, cap=None, cpus=None):
    """(exit code, stdout, stderr) of the CLI in a fresh process, on the given CPUs if any."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "VEROPINCH_"))}
    env["PYTHONPATH"] = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    if cap is not None:
        env["VEROPINCH_MEMO_CAP"] = cap
    proc = subprocess.run(
        [sys.executable, "-m", "veropinch.cli", *argv], env=env, capture_output=True,
        preexec_fn=None if cpus is None else lambda: os.sched_setaffinity(0, cpus),
    )
    return proc.returncode, proc.stdout, proc.stderr


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


needs_workers = pytest.mark.skipif(_usable_cpus() < 2 or not hasattr(os, "fork"), reason="no workers on one CPU")


class TestVerifyWorkers:
    """`verify` computes its (n, d) cells in forked workers and prints what one process would."""

    ARGV = ["verify", "--n", "2..3", "--d", "2..4", "--format", "json"]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
    @pytest.mark.parametrize("cap, code", [(None, EXIT_OK), ("20", EXIT_RESOURCE)], ids=["passing", "capped"])
    def test_one_cpu_prints_what_every_cpu_prints(self, cap, code):
        pinned = _run_cli(self.ARGV, cap, cpus={min(os.sched_getaffinity(0))})
        assert_no_child_left()
        assert _run_cli(self.ARGV, cap) == pinned
        assert_no_child_left()
        assert pinned[0] == code

    @pytest.mark.parametrize(
        "error, code, prefix",
        [(ResourceLimitError, EXIT_RESOURCE, "resource limit"), (AssertionError, EXIT_INTERNAL, "internal error")],
    )
    def test_a_failing_cell_fails_as_one_process_does(self, capsys, monkeypatch, error, code, prefix):
        # the workers meet (3, 3) first, largest cell first; one process meets (2, 4) first
        from veropinch import cli

        check = cli.verify_gap_equivalence

        def failing(spec, t_max):
            if (spec.n, spec.d) in {(2, 4), (3, 3)}:
                raise error(f"injected at n={spec.n} d={spec.d}")
            return check(spec, t_max)

        monkeypatch.setattr(cli, "verify_gap_equivalence", failing)
        forked = run(capsys, *self.ARGV)
        assert_no_child_left()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert run(capsys, *self.ARGV) == forked == (code, "", f"{prefix}: injected at n=2 d=4\n")
        assert_no_child_left()

    def test_a_dying_worker_leaves_the_rows_to_this_process(self, capsys, monkeypatch):
        from veropinch import cli

        expected = run(capsys, *self.ARGV)
        parent, check = os.getpid(), cli.verify_gap_equivalence

        def dying(spec, t_max):
            if os.getpid() != parent:
                os._exit(9)
            return check(spec, t_max)

        monkeypatch.setattr(cli, "verify_gap_equivalence", dying)
        assert run(capsys, *self.ARGV) == expected
        assert expected[0] == EXIT_OK
        assert_no_child_left()

    @needs_workers
    def test_workers_compute_every_row(self, capsys, monkeypatch):
        from veropinch import cli

        here, check = [], cli.verify_gap_equivalence
        monkeypatch.setattr(cli, "verify_gap_equivalence", lambda spec, t: here.append(spec) or check(spec, t))
        code, out, _ = run(capsys, *self.ARGV)
        assert code == EXIT_OK and json.loads(out)["ok"] is True
        assert here == []
        assert_no_child_left()

    @needs_workers
    def test_an_interrupt_reaps_every_worker(self, monkeypatch):
        import select

        class Interrupted:
            def register(self, fd, events):
                pass

            def poll(self):
                raise KeyboardInterrupt

        monkeypatch.setattr(select, "poll", Interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(self.ARGV)
        assert_no_child_left()

    @needs_workers
    def test_a_worker_dying_mid_reply_leaves_the_rows_to_this_process(self, capsys, monkeypatch):
        from veropinch import cli

        expected = run(capsys, *self.ARGV)
        parent, send = os.getpid(), cli._send

        def dying(file, value):
            if os.getpid() == parent:
                return send(file, value)
            data = marshal.dumps(value)
            frame = len(data).to_bytes(8, "little") + data
            file.write(frame[: len(frame) // 2])
            file.flush()
            os._exit(9)

        monkeypatch.setattr(cli, "_send", dying)
        assert run(capsys, *self.ARGV) == expected
        assert_no_child_left()

    def test_replies_larger_than_a_pipe_buffer_arrive_whole(self):
        from veropinch import cli

        # each reply marshals to about 250 KB, past a 64 KiB pipe buffer
        compute = lambda unit: [unit] * 50_000
        assert cli._fork_map(iter(range(4)), 2, compute) == {unit: compute(unit) for unit in range(4)}
        assert_no_child_left()

    @pytest.mark.skipif(not hasattr(os, "waitid"), reason="no waitid on this platform")
    def test_a_unit_sent_to_a_dead_worker_ends_the_map(self, monkeypatch):
        # the worker exits after its first reply, and the second unit is sent
        # only once it has: the send fails, and so must nothing after it
        from veropinch import cli

        parent, send = os.getpid(), cli._send

        def last(file, value):
            send(file, value)
            if os.getpid() != parent:
                os._exit(0)

        def units():
            yield 0
            os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)  # not reaped, so the map still can
            yield 1

        monkeypatch.setattr(cli, "_send", last)
        assert cli._fork_map(units(), 1, str) is None
        assert_no_child_left()

    @needs_workers
    def test_a_survived_sigterm_leaves_the_rows_to_this_process(self, capsys, monkeypatch):
        # a caller's own SIGTERM handler runs once the workers are reaped, and
        # the sweeps then finish here, as on one CPU
        from veropinch import cli

        with monkeypatch.context() as one_cpu:
            one_cpu.setattr(cli, "_usable_cpus", lambda: 1)
            expected = run(capsys, *self.ARGV)
        parent, check, first = os.getpid(), cli.verify_gap_equivalence, [True]

        def terminating(spec, t_max):
            if os.getpid() != parent and first:  # each worker's first cell
                first.clear()
                os.kill(os.getppid(), signal.SIGTERM)
            return check(spec, t_max)

        monkeypatch.setattr(cli, "verify_gap_equivalence", terminating)
        seen = []
        recorder = lambda signum, frame: seen.append(signum)
        previous = signal.signal(signal.SIGTERM, recorder)
        try:
            assert run(capsys, *self.ARGV) == expected
            assert seen == [signal.SIGTERM]
            assert_no_child_left()
            assert signal.getsignal(signal.SIGTERM) is recorder
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_another_thread_runs_the_sweeps_in_process(self, capsys, monkeypatch):
        # no SIGTERM handler can be set outside the main thread, so no worker
        # is forked there, and the rows are this process's
        expected, forks, fork = run(capsys, *self.ARGV), [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        got = []
        thread = threading.Thread(target=lambda: got.append(run(capsys, *self.ARGV)))
        thread.start()
        thread.join()
        assert got == [expected] and forks == []
        assert_no_child_left()

    @needs_workers
    def test_sigterm_reaps_every_worker(self):
        # SIGTERM while workers run: this process reaps them all, then ends
        # by the signal as it would have without them
        argv = ["verify", "--n", "2..5", "--d", "2..5", "--tmax", "6", "--format", "json"]
        env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "VEROPINCH_"))}
        env["PYTHONPATH"] = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "veropinch.cli", *argv], env=env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            children = pathlib.Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
            if not children.exists():
                pytest.skip("no /proc children list on this platform")
            while not children.read_text().split():
                assert proc.poll() is None, "verify ended before it forked a worker"
                time.sleep(0.005)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == -signal.SIGTERM
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()


def test_module_entry_point_matches_main(capsys):
    argv = ["gaps", "--n", "2", "--d", "2", "--pinch", "1,1", "--format", "json"]
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "veropinch.cli", *argv], env=env, capture_output=True, text=True
    )
    code, out, _ = run(capsys, *argv)
    assert proc.returncode == code == EXIT_OK
    assert proc.stdout == out


def test_the_cli_imports_no_worker_module_until_verify_forks():
    # select and signal are imported by the worker map alone, so `analyze`
    # and `gaps` never load them; -S keeps site's own imports out of the count
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    modules = ("select", "signal", "pickle", "multiprocessing")
    probe = f"import sys, veropinch.cli; print(*[m for m in {modules!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
