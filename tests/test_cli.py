"""Tests for the experiment runner: exit codes, output formats, determinism."""

import csv
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from forrlab import _rng, cli, protocol
from forrlab.cli import EXIT_PASS, EXIT_USAGE, main
from forrlab.forrelation_dist import (
    ForrParams,
    InstanceMode,
    LiftedInstance,
    generate_instance,
)
from forrlab.protocol import (
    QuantumProtocolConfig,
    default_copies,
    referee_gates,
    run_quantum_protocol,
)
from forrlab.quantum_sim import StateVector, apply_gate, swap_test_probability


def run(args):
    return main(args)


class TestUsageErrors:
    def test_invalid_n(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["verify-moments", "--n", "12"])
        assert err.value.code == EXIT_USAGE

    def test_advantage_sample_floor(self):
        code = run(["advantage", "--n", "16", "--samples", "5000"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("subcommand", ["advantage", "verify-moments"])
    def test_sample_floor_message(self, subcommand, capsys):
        assert run([subcommand, "--n", "16", "--samples", "9999"]) == EXIT_USAGE
        assert ("error: Monte Carlo estimation needs at least 10000 samples, "
                "got 9999") in capsys.readouterr().err

    def test_fourier_audit_feasibility(self, capsys):
        code = run(["fourier-audit", "--n", "16"])
        assert code == EXIT_USAGE
        assert "2N <= 16" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("subcommand, flag", [
        ("run-protocol", "--instances"),
        ("run-protocol", "--copies"),
        ("fourier-audit", "--partitions"),
        ("fourier-audit", "--max-cost"),
        ("gen-instances", "--count"),
    ])
    def test_nonpositive_counts_rejected(self, subcommand, flag, value, capsys):
        with pytest.raises(SystemExit) as err:
            run([subcommand, flag, value])
        assert err.value.code == EXIT_USAGE
        err_text = capsys.readouterr().err
        assert f"argument {flag}: must be positive" in err_text
        assert "Traceback" not in err_text

    @pytest.mark.parametrize("subcommand", [
        "verify-moments", "run-protocol", "fourier-audit", "advantage",
        "gen-instances", "sample-dist"])
    def test_negative_seed_rejected(self, subcommand, capsys):
        with pytest.raises(SystemExit) as err:
            run([subcommand, "--seed", "-1"])
        assert err.value.code == EXIT_USAGE
        err_text = capsys.readouterr().err
        assert "argument --seed: must be nonnegative, got -1" in err_text
        assert "Traceback" not in err_text

    @pytest.mark.parametrize("args, message", [
        (["verify-moments", "--seed", "abc"],
         "argument --seed: must be an integer, got 'abc'"),
        (["run-protocol", "--copies", "1.5"],
         "argument --copies: must be an integer, got '1.5'"),
        (["verify-moments", "--n", "abc"],
         "argument --n: must be an integer, got 'abc'"),
        (["run-protocol", "--threshold", "abc"],
         "argument --threshold: must be a finite number in [0, 1], got abc"),
    ], ids=["seed", "copies", "n", "threshold"])
    def test_non_numeric_value_names_no_function(self, args, message,
                                                 capsys):
        with pytest.raises(SystemExit) as err:
            run(args)
        assert err.value.code == EXIT_USAGE
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].endswith(f"error: {message}")
        assert re.search(r"\b_[a-z]", err_lines[0]) is None

    @pytest.mark.parametrize("seed", [2**64, 2**128 + 1])
    @pytest.mark.parametrize("subcommand", [
        "verify-moments", "run-protocol", "fourier-audit", "advantage",
        "gen-instances", "sample-dist"])
    def test_seed_at_or_above_two_to_64_rejected(self, subcommand, seed,
                                                 capsys):
        with pytest.raises(SystemExit) as err:
            run([subcommand, "--seed", str(seed)])
        assert err.value.code == EXIT_USAGE
        err_text = capsys.readouterr().err
        assert f"argument --seed: must be below 2^64, got {seed}" in err_text
        assert "Traceback" not in err_text

    @pytest.mark.parametrize("subcommand", [
        "verify-moments", "run-protocol", "fourier-audit", "advantage",
        "gen-instances", "sample-dist"])
    def test_out_in_missing_directory_rejected(self, subcommand, tmp_path,
                                               capsys):
        missing = tmp_path / "missing"
        with pytest.raises(SystemExit) as err:
            run([subcommand, "--out", str(missing / "out.csv")])
        assert err.value.code == EXIT_USAGE
        err_text = capsys.readouterr().err
        assert (f"argument --out: directory '{missing}' does not exist"
                in err_text)
        assert "Traceback" not in err_text
        assert not missing.exists()

    @pytest.mark.parametrize("subcommand", [
        "verify-moments", "run-protocol", "fourier-audit", "advantage",
        "gen-instances", "sample-dist"])
    @pytest.mark.parametrize("slash", ["", "/"])
    def test_out_naming_a_directory_rejected(self, subcommand, slash,
                                             tmp_path, capsys):
        folder = f"{tmp_path}{slash}"
        with pytest.raises(SystemExit) as err:
            run([subcommand, "--out", folder])
        assert err.value.code == EXIT_USAGE
        err_text = capsys.readouterr().err
        assert f"argument --out: '{folder}' is a directory" in err_text
        assert "Traceback" not in err_text
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("subcommand", [
        "verify-moments", "run-protocol", "fourier-audit", "advantage",
        "gen-instances", "sample-dist"])
    def test_empty_out_rejected(self, subcommand, capsys):
        with pytest.raises(SystemExit) as err:
            run([subcommand, "--out", ""])
        assert err.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"forrlab {subcommand}: error: argument --out: must name a "
            f"file, got ''"]

    @pytest.mark.parametrize("args", [
        ["sample-dist", "--n", "4", "--samples", "10"],
        ["gen-instances", "--n", "4", "--count", "1"]], ids=lambda a: a[0])
    def test_unwritable_out_exits_two(self, args, tmp_path, monkeypatch,
                                      capsys):
        from forrlab import cli

        def refuse(path, *rest, **kwargs):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(cli, "open", refuse, raising=False)
        out = tmp_path / "out.csv"
        assert run([*args, "--out", str(out)]) == EXIT_USAGE
        err_lines = capsys.readouterr().err.splitlines()
        assert err_lines == [f"error: [Errno 13] Permission denied: '{out}'"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.1", "1.5"])
    def test_threshold_outside_unit_interval_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as err:
            run(["run-protocol", "--n", "16", "--instances", "1",
                 "--threshold", value])
        assert err.value.code == EXIT_USAGE
        err_text = capsys.readouterr().err
        assert ("argument --threshold: must be a finite number in [0, 1], "
                f"got {value}") in err_text
        assert "Traceback" not in err_text

    def test_slow_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["run-protocol", "--n", "16", "--mode", "promise_yes",
                 "--instances", "1", "--slow"])
        assert err.value.code == EXIT_USAGE
        err_text = capsys.readouterr().err
        assert "unrecognized arguments: --slow" in err_text
        assert "Traceback" not in err_text


README = Path(__file__).resolve().parents[1] / "README.md"

# SHA-256 of `forrlab --help` and `forrlab SUB --help` at 80 columns, as
# printed by Python 3.11's argparse when build_parser added every
# subcommand's arguments on every call.
PINNED_HELP = {
    "": "cfbc361457f96744b20d33dc52793d197208fdf4eea62c5f0f7c9d46ef53ea39",
    "verify-moments":
        "5d2402c98803d847e7061cde3873d81e52ff0b32be23740f7c100f57aa24af59",
    "run-protocol":
        "3092380936e0b816fb40147e5410f2741db43561b083430bca55e2d7d45a5501",
    "fourier-audit":
        "156cccd8b818cfddeb6af3eafa57f3d03566473d3cd4effffa24aec5fe7732c0",
    "advantage":
        "20a71148fc6869f169f93bffe4eaba9146c4044f9a0ead00b44560d12e20c298",
    "gen-instances":
        "13cf32ea61c234af3917b4d528e9412eaf0986d4294e36e99bcc811a424a3393",
    "sample-dist":  # re-pinned when --dist lost its lifted choice
        "9efdd3a334e1c5718dc30975404ea1926a8350f265c8eef8484adef52bbffc38",
}


def readme_commands() -> list[list[str]]:
    """The forrlab command lines of the README, continuations joined."""
    text = README.read_text().replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines()
            if line.startswith("forrlab ")]


def help_text(parser_argv, argv, capsys) -> str:
    with pytest.raises(SystemExit) as err:
        cli.build_parser(parser_argv).parse_args(argv)
    assert err.value.code == 0
    return capsys.readouterr().out


class TestParser:
    @pytest.mark.parametrize("subcommand", PINNED_HELP)
    def test_help_matches_the_full_parser(self, subcommand, monkeypatch,
                                          capsys):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [subcommand, "--help"] if subcommand else ["--help"]
        text = help_text(argv, argv, capsys)
        assert text == help_text(None, argv, capsys)
        if sys.version_info[:2] == (3, 11):  # argparse layout varies
            digest = hashlib.sha256(text.encode()).hexdigest()
            assert digest == PINNED_HELP[subcommand]

    def test_every_subcommand_is_listed(self):
        names = [name for name, *_ in cli.SUBCOMMANDS]
        assert list(PINNED_HELP)[1:] == names
        for name in names:  # registered, with its arguments, when chosen
            assert cli.build_parser([name]).parse_args([name]).subcommand == name

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["bogus"])
        assert err.value.code == EXIT_USAGE
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("forrlab: error: argument subcommand: "
                                       "invalid choice: 'bogus'")

    def test_readme_commands_parse_as_with_every_argument(self):
        commands = readme_commands()
        assert {argv[0] for argv in commands} == {
            name for name, *_ in cli.SUBCOMMANDS}
        for argv in commands:
            lazy = cli.build_parser(argv).parse_args(argv)
            assert lazy == cli.build_parser().parse_args(argv), argv

    def test_bad_threshold_is_one_stderr_line(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["run-protocol", "--threshold", "2"])
        assert err.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "forrlab run-protocol: error: argument --threshold: must be a "
            "finite number in [0, 1], got 2"]

    def test_import_loads_no_random_no_pool_and_builds_no_parser(self):
        # Work done at import would move time from a run into set-up;
        # dataclasses would compile its records' methods on every import.
        probe = textwrap.dedent("""
            import argparse, sys
            built = []
            init = argparse.ArgumentParser.__init__
            def counted(self, *args, **kwargs):
                built.append(1)
                init(self, *args, **kwargs)
            argparse.ArgumentParser.__init__ = counted
            import forrlab.cli
            print(sorted({"numpy.random", "concurrent.futures",
                          "dataclasses"} & set(sys.modules)), len(built))
            """)
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["[]", "0"]

    def test_verify_moments_loads_no_pool_and_leaves_no_thread(self,
                                                                tmp_path):
        # The Monte Carlo fan-out uses plain threads and joins them all.
        probe = textwrap.dedent("""
            import sys, threading
            from forrlab import cli
            code = cli.main(["verify-moments", "--n", "4", "--samples",
                             "10000", "--out", sys.argv[1]])
            print(code, "concurrent.futures" in sys.modules,
                  threading.active_count())
            """)
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", probe,
                              str(tmp_path / "moments.csv")],
                             env=env, capture_output=True, text=True,
                             check=True)
        assert out.stdout.splitlines()[-1].split() == [str(EXIT_PASS),
                                                      "False", "1"]
        assert re.fullmatch(r"# checks: 47, 2 draws \(moments \d+\.\d{3}s, "
                            r"mean_forrelation \d+\.\d{3}s\), 2 chunks on "
                            r"[12] threads in \d+\.\d\ds\n", out.stderr)


class TestRunProtocol:
    def test_amplified_summary_and_csv(self, tmp_path, capsys):
        out = tmp_path / "runs.csv"
        code = run(["run-protocol", "--n", "16", "--instances", "6",
                    "--copies", "300", "--seed", "5", "--out", str(out)])
        assert code == EXIT_PASS
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["instances"] == 6
        assert 0.0 <= summary["success_rate"] <= 1.0
        assert summary["qubits_sent_per_instance"] == 300 * 2 * 5
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert set(rows[0]) == {"instance_id", "N", "eps", "forr", "copies",
                                "ones_fraction", "decision", "qubits_sent",
                                "gate_count", "seed"}
        assert rows[0]["decision"] in ("YES", "NO")

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["run-protocol", "--n", "16", "--instances", "4",
                "--copies", "100", "--seed", "9"]
        assert run(args + ["--out", str(a)]) == EXIT_PASS
        assert run(args + ["--out", str(b)]) == EXIT_PASS
        assert a.read_bytes() == b.read_bytes()

    def test_paper_mode_with_explicit_copies(self, capsys):
        code = run(["run-protocol", "--n", "16", "--mode", "promise_no",
                    "--instances", "2", "--copies", "50", "--seed", "1"])
        assert code == EXIT_PASS
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["mode"] == "promise_no"

    def test_amplified_mode_separates(self, capsys):
        code = run(["run-protocol", "--n", "64", "--instances", "20",
                    "--copies", "500", "--seed", "11"])
        assert code == EXIT_PASS
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["success_rate"] >= 0.95

    def test_streams_do_not_alias_across_seeds(self, tmp_path):
        # Instance 1 at seed 0 and instance 0 at seed 1000 must come from
        # unrelated streams.
        def rows(seed, instances, mode="amplified"):
            out = tmp_path / f"{mode}-{seed}-{instances}.csv"
            assert run(["run-protocol", "--n", "16", "--mode", mode,
                        "--instances", str(instances), "--copies", "50",
                        "--seed", str(seed), "--out", str(out)]) == EXIT_PASS
            with open(out) as fh:
                return list(csv.DictReader(fh))

        first, second = rows(0, 2)[1], rows(1000, 1)[0]
        assert first["forr"] != second["forr"]
        assert first["seed"] != second["seed"]

        # gen-instances line idx is run-protocol row idx at the same seed.
        out = tmp_path / "inst.jsonl"
        assert run(["gen-instances", "--n", "16", "--mode", "planted_yes",
                    "--count", "3", "--seed", "4", "--out",
                    str(out)]) == EXIT_PASS
        emitted = [LiftedInstance.from_json(line).forr_value
                   for line in out.read_text().splitlines()]
        assert emitted == [float(r["forr"])
                           for r in rows(4, 3, mode="planted_yes")]

    def test_threshold_flag_recorded(self, capsys):
        code = run(["run-protocol", "--n", "16", "--instances", "2",
                    "--copies", "50", "--seed", "12", "--threshold", "0.9"])
        assert code == EXIT_PASS
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["threshold"] == 0.9


class TestExitOne:
    def test_failed_record_maps_to_exit_one(self):
        from forrlab.cli import ResultRecord, _exit_code
        ok = ResultRecord(experiment="e", subcommand="s", metric="m",
                          estimate=1.0, passed=True)
        bad = ResultRecord(experiment="e", subcommand="s", metric="m",
                           estimate=1.0, passed=False)
        assert _exit_code([ok]) == EXIT_PASS
        assert _exit_code([ok, bad]) == 1

    def test_sampling_failure_exits_one(self, monkeypatch, capsys):
        from forrlab import cli
        from forrlab.errors import SamplingFailureError

        def explode(*args, **kwargs):
            raise SamplingFailureError("forced", attempts=3)

        monkeypatch.setattr(cli, "generate_instance", explode)
        code = run(["gen-instances", "--n", "16", "--count", "1"])
        assert code == 1
        assert "forced" in capsys.readouterr().err

    def test_failed_controlled_h_check_exits_one(self, monkeypatch, capsys):
        from forrlab import quantum_sim
        sequence = quantum_sim._controlled_h_sequence
        monkeypatch.setattr(quantum_sim, "_controlled_h_sequence",
                            lambda control, target: sequence(control, target)[:-1])
        quantum_sim._verify_controlled_h_once.cache_clear()
        code = run(["run-protocol", "--n", "16", "--instances", "1",
                    "--copies", "10"])
        assert code == 1
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error: controlled-H gate sequence")


class TestFeasibility:
    def test_state_over_byte_cap_exits_two(self, monkeypatch, capsys):
        from forrlab import quantum_sim
        monkeypatch.setattr(quantum_sim, "MAX_STATE_BYTES", 8 << 6)
        code = run(["run-protocol", "--n", "64", "--instances", "1",
                    "--copies", "10"])
        assert code == EXIT_USAGE
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("feasibility error: 7 qubits need")


class TestFourierAuditFeasibility:
    def test_oversized_masks_exit_two_before_any_partition(self, monkeypatch,
                                                           capsys):
        def no_partitions(*args, **kwargs):
            raise AssertionError("partition drawn before the size check")
        monkeypatch.setattr(cli, "random_protocol_partition", no_partitions)
        monkeypatch.setattr(cli, "trivial_partition", no_partitions)
        # The cost-14 partition, the last drawn, needs 2 GiB of masks.
        code = run(["fourier-audit", "--n", "8", "--max-cost", "14",
                    "--partitions", "14"])
        assert code == EXIT_USAGE
        err_lines = capsys.readouterr().err.splitlines()
        assert err_lines == ["feasibility error: a cost-14 random partition "
                             "over 2^16 points per side needs 2147483648 "
                             "bytes of cell masks, over 1073741824"]

    def test_only_costs_drawn_are_checked(self, capsys):
        # One partition is drawn, of cost 1, however large --max-cost is.
        assert run(["fourier-audit", "--n", "8", "--max-cost", "40",
                    "--partitions", "1"]) == EXIT_PASS

    def test_partition_refused_before_its_masks(self, monkeypatch):
        from forrlab.errors import ResourceLimitError

        def no_masks(*args, **kwargs):
            raise AssertionError("masks allocated before the size check")
        monkeypatch.setattr(protocol, "_random_tree_masks", no_masks)
        with pytest.raises(ResourceLimitError, match="cost-14"):
            protocol.random_protocol_partition(16, 14, 0)
        # 2 * 2^13 * 2^16 bytes is exactly the cap: allowed.
        protocol.check_partition_size(16, 13)
        # Costs past 2n leave the leaf count at 4^n.
        protocol.check_partition_size(4, 10 ** 6)


class TestVerifyMoments:
    def test_small_run_passes_and_flags_low_power(self, tmp_path):
        out = tmp_path / "moments.csv"
        code = run(["verify-moments", "--n", "16", "--samples", "10000",
                    "--seed", "2", "--out", str(out)])
        assert code == EXIT_PASS
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert all(row["flags"] == "low_power" for row in rows)
        assert any(row["metric"] == "mean_forrelation" for row in rows)
        assert all(row["passed"] == "True" for row in rows)

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["verify-moments", "--n", "16", "--samples", "10000",
                "--seed", "3"]
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_output_independent_of_thread_count(self, tmp_path, monkeypatch):
        args = ["verify-moments", "--n", "16", "--samples", "10000",
                "--seed", "0"]
        outputs = []
        for workers in (1, 3):
            monkeypatch.setattr(_rng, "WORKERS", workers)
            out = tmp_path / f"workers{workers}.csv"
            assert run(args + ["--out", str(out)]) == EXIT_PASS
            outputs.append(out.read_bytes())
        assert outputs[0] and outputs[0] == outputs[1]

    def test_mean_forrelation_under_override_has_no_verdict(self, tmp_path):
        # At eps = 1 truncation is common (2 Phi(-1) is about 0.32), so the
        # eps/2 lower bound does not apply; the moment rows keep theirs.
        out = tmp_path / "moments.csv"
        code = run(["verify-moments", "--n", "4", "--samples", "10000",
                    "--eps-override", "1", "--out", str(out)])
        assert code == EXIT_PASS
        with open(out) as fh:
            rows = {r["metric"]: r for r in csv.DictReader(fh)}
        assert rows.pop("mean_forrelation")["passed"] == ""
        assert rows and all(r["passed"] == "True" for r in rows.values())

    def test_repeated_pairs_share_their_row(self, tmp_path):
        # The moment checks share one Gaussian draw, so a pair picked twice
        # gets the same estimate and se twice; seed 1 picks three pairs
        # twice each.
        out = tmp_path / "moments.csv"
        assert run(["verify-moments", "--n", "16", "--samples", "16384",
                    "--seed", "1", "--out", str(out)]) == EXIT_PASS
        pairs = {}
        with open(out) as fh:
            for row in csv.DictReader(fh):
                if row["metric"].startswith("pair_moment"):
                    pairs.setdefault(row["metric"], []).append(
                        (row["estimate"], row["standard_error"]))
        repeated = {m: rows for m, rows in pairs.items() if len(rows) > 1}
        assert sorted(repeated) == ["pair_moment[i=11,j=8]",
                                    "pair_moment[i=14,j=11]",
                                    "pair_moment[i=8,j=5]"]
        assert all(len(set(rows)) == 1 for rows in repeated.values())

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_readme_configuration_passes(self, seed, tmp_path):
        out = tmp_path / "moments.csv"
        assert run(["verify-moments", "--n", "16", "--samples", "1000000",
                    "--seed", str(seed), "--out", str(out)]) == EXIT_PASS
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 47
        assert all(row["passed"] == "True" for row in rows)

    def test_override_whose_moments_underflow_is_refused(self, tmp_path,
                                                         capsys):
        # eps^6, the square scale of the degree-6 moment_cap products, is
        # below the smallest normal double: the standard errors would be 0.
        out = tmp_path / "moments.csv"
        code = run(["verify-moments", "--n", "4", "--samples", "10000",
                    "--eps-override", "1e-300", "--out", str(out)])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: --eps-override 1e-300 is too small: moments of degree 6 "
            "square to below 2.23e-308, so their standard errors underflow"]
        assert not out.exists()


class TestFourierAudit:
    def test_default_run_passes(self, tmp_path):
        out = tmp_path / "audit.csv"
        code = run(["fourier-audit", "--partitions", "40", "--seed", "4",
                    "--out", str(out)])
        assert code == EXIT_PASS
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        metrics = [row["metric"] for row in rows]
        assert any("l2_mass[trivial]" in m for m in metrics)
        assert any("subcube" in m for m in metrics)
        assert all(row["passed"] == "True" for row in rows)


    def test_existing_rows_pinned(self, tmp_path):
        out = tmp_path / "audit.csv"
        assert run(["fourier-audit", "--n", "4", "--partitions", "200",
                    "--seed", "0", "--out", str(out)]) == EXIT_PASS
        lines = out.read_bytes().split(b"\r\n")
        rows = {line.split(b",", 1)[0]: line for line in lines[1:]}
        for experiment, tail in PINNED_AUDIT_ROWS.items():
            assert rows[experiment] == experiment + PINNED_AUDIT_PREFIX + tail

    def test_adversary_rows_pass(self, tmp_path):
        out = tmp_path / "audit.csv"
        assert run(["fourier-audit", "--partitions", "5",
                    "--out", str(out)]) == EXIT_PASS
        with open(out) as fh:
            rows = {row["experiment"]: row for row in csv.DictReader(fh)}
        for m, mass in ((1, "1.0"), (3, "1.5")):
            row = rows[f"fourier-audit:adversary-pairs{m}"]
            assert row["estimate"] == mass and row["passed"] == "True"

    def test_csv_same_on_one_and_two_blas_threads(self, tmp_path):
        # level_transform is exact whatever the summation order, so the
        # audit may not depend on how OpenBLAS splits its 2^16-point
        # products between threads.
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"audit{threads}.csv"
            subprocess.run([sys.executable, "-m", "forrlab.cli",
                            "fourier-audit", "--n", "8", "--partitions", "4",
                            "--max-cost", "3", "--seed", "0", "--out",
                            str(out)],
                           env={**env, "OPENBLAS_NUM_THREADS": threads},
                           capture_output=True, check=True)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("n, width, ceiling",
                             [("4", 8, "5.2915"), ("8", 16, "10.9545")])
    def test_prints_the_window_ceiling(self, n, width, ceiling, tmp_path,
                                       capsys):
        # No level-2 mass on a window of 2N coordinates exceeds
        # sqrt(C(2N, 2)), below 120 c^2 at every c >= 1 up to 2N = 16.
        out = tmp_path / "audit.csv"
        assert run(["fourier-audit", "--n", n, "--partitions", "2",
                    "--out", str(out)]) == EXIT_PASS
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if "ceiling" in line]
        assert lines == [f"# l2 window ceiling sqrt(C({width}, 2)) = "
                         f"{ceiling} vs 120 c^2 >= 120: the l2_violations "
                         f"row is vacuous, no valid partition can fail it"]
        assert "ceiling" not in out.read_text()

    @pytest.mark.parametrize("scale", [0.0, 0.5])
    def test_wrong_level_two_engine_exits_one(self, scale, monkeypatch):
        from forrlab import protocol
        exact = protocol.level_transform
        monkeypatch.setattr(protocol, "level_transform",
                            lambda values, k: scale * exact(values, k))
        assert run(["fourier-audit", "--partitions", "5"]) == 1


# SHA-256 of whole advantage and fourier-audit CSVs: how a partition stores
# its cells must not change any cell output on any row, so not one byte.
PINNED_PARTITION_CSVS = {
    ("advantage", "--n", "16", "--n", "64", "--samples", "20000",
     "--seed", "2"):
        "385fb362a9b807c0b1ad47e57c2a92a20be027d3382cf10f690d85e4ee217eab",
    ("fourier-audit", "--n", "4", "--partitions", "200", "--seed", "0"):
        "5b786f40fad8447bbae0edcac24e1db5d38eaed140ab9c25623ac4e11932aca2",
    # Costs up to 14: a cost-14 tree of 8,818 cells, validated by its shape.
    ("fourier-audit", "--n", "4", "--partitions", "14", "--max-cost", "14",
     "--seed", "0"):
        "3a5bd998cff334f6f278487aecd8865133b4a190480d651767bdd6f7763ea5cc",
    # 16-coordinate windows: masks of 65,536 points.
    ("fourier-audit", "--n", "8", "--partitions", "8", "--max-cost", "6",
     "--seed", "5"):
        "810f6d32dc6b8b9faae7b3395f54e17d6340907b264f952bb995258326f98a5f",
}


@pytest.mark.parametrize("args, digest", PINNED_PARTITION_CSVS.items(),
                         ids=lambda v: v[0] if isinstance(v, tuple) else "")
def test_partition_csv_pinned(args, digest, tmp_path):
    out = tmp_path / "out.csv"
    assert run([*args, "--out", str(out)]) == EXIT_PASS
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_readme_audit_csv_pinned(tmp_path):
    # The README configuration, audited in several blocks of partitions.
    test_partition_csv_pinned(
        ("fourier-audit", "--n", "4", "--partitions", "1000", "--seed", "3"),
        "e9835382d02bae0981e59949d6e162ec66e0ad523f30dc5cea4badc9fe48420c",
        tmp_path)


PINNED_AUDIT_PREFIX = b",fourier-audit,4,0.014426950408889633,0,"
# The --n 4 --partitions 200 --seed 0 rows as the full-transform audit wrote
# them; the level-2 fast path must leave them byte for byte.
PINNED_AUDIT_ROWS = {
    b"fourier-audit:trivial":
        b"200,,,l2_mass[trivial],0.0,exact,<= 0.0,True,",
    b"fourier-audit:random":
        b"200,,,l2_violations[200 partitions c<=4],0,exact,"
        b"max mass 0.0845 vs 120 c^2,True,",
    b"fourier-audit:levelk-subcubes":
        b",,,level2_violations[6544 subcube indicators],0,exact,"
        b"weight <= alpha^2 (e ln 1/alpha)^2,True,",
    b"fourier-audit:levelk-random":
        b",,,level2_violations[1000 random indicators n=10],0,exact,"
        b"weight <= alpha^2 (e ln 1/alpha)^2,True,",
}


class TestAdvantage:
    def test_table_over_sizes(self, tmp_path):
        out = tmp_path / "adv.csv"
        code = run(["advantage", "--n", "16", "--n", "64", "--samples",
                    "20000", "--seed", "6", "--out", str(out)])
        assert code == EXIT_PASS
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # trivial + probe per size
        trivial = [r for r in rows if r["metric"] == "advantage[trivial]"]
        assert all(r["estimate"] == "0.0" for r in trivial)

    def test_probe_rows_carry_a_verdict(self, tmp_path):
        out = tmp_path / "adv.csv"
        code = run(["advantage", "--n", "16", "--n", "64", "--samples",
                    "20000", "--seed", "9", "--out", str(out)])
        assert code == EXIT_PASS
        with open(out) as fh:
            probes = [r for r in csv.DictReader(fh)
                      if r["metric"] == "advantage[probe]"]
        assert len(probes) == 2
        assert all(r["passed"] == "True" for r in probes)
        assert all(r["bound"].startswith("|est - eps/sqrt(N)| <= 5 se")
                   for r in probes)

    def test_probe_under_override_has_no_verdict(self, tmp_path):
        # At eps = 1 truncation halves the probe's advantage (about 0.12
        # against eps/sqrt(N) = 0.25 at N=16), so the gate does not apply.
        out = tmp_path / "adv.csv"
        code = run(["advantage", "--n", "16", "--samples", "10000",
                    "--eps-override", "1", "--out", str(out)])
        assert code == EXIT_PASS
        with open(out) as fh:
            probe, = [r for r in csv.DictReader(fh)
                      if r["metric"] == "advantage[probe]"]
        assert probe["passed"] == ""


class TestInstanceAndSampleEmitters:
    def test_gen_instances_jsonl(self, tmp_path):
        out = tmp_path / "inst.jsonl"
        code = run(["gen-instances", "--n", "16", "--mode", "planted_yes",
                    "--count", "4", "--seed", "7", "--out", str(out)])
        assert code == EXIT_PASS
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4
        for line in lines:
            inst = LiftedInstance.from_json(line)
            assert inst.N == 16
            assert len(inst.x) == 32

    def test_sample_dist_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "dist.csv"
        code = run(["sample-dist", "--n", "16", "--dist", "signs",
                    "--samples", "2000", "--seed", "8", "--out", str(out)])
        assert code == EXIT_PASS
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["samples"] == 2000
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2000
        assert set(rows[0]) == {"index", "forr"}

    def test_lifted_dist_is_refused(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["sample-dist", "--dist", "lifted"])
        assert err.value.code == EXIT_USAGE
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        assert "invalid choice: 'lifted'" in err_lines[0]

    def test_gaussian_rows_are_scored_per_chunk(self, tmp_path, capsys):
        # Two full chunks and a ragged one: every float64 row at once would
        # take samples * 2N * 8 bytes, 64 MiB here.  gaussian_rows draws
        # what it is asked for in one piece, so the command must hand it
        # one row block at a time: one float per sample and a few blocks.
        samples = 2 * _rng.CHUNK + 5
        tracemalloc.start()
        try:
            code = run(["sample-dist", "--n", "64", "--dist", "gaussian",
                        "--samples", str(samples), "--seed", "1",
                        "--out", str(tmp_path / "g.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_PASS
        assert summary_of(capsys)["samples"] == samples
        assert peak < samples * 8 + 8 * _rng.BLOCK_BYTES


@pytest.mark.parametrize("args", [
    ["fourier-audit", "--partitions", "5", "--seed", "2"],
    ["advantage", "--n", "16", "--samples", "10000", "--seed", "3"],
    ["gen-instances", "--n", "16", "--mode", "promise_yes", "--count", "3",
     "--seed", "4"],
    ["sample-dist", "--n", "16", "--dist", "signs", "--samples", "500",
     "--seed", "5"],
], ids=lambda args: args[0])
def test_byte_identical_reruns(args, tmp_path, capsys):
    a = tmp_path / "a.out"
    b = tmp_path / "b.out"
    assert run(args + ["--out", str(a)]) == EXIT_PASS
    assert run(args + ["--out", str(b)]) == EXIT_PASS
    assert a.read_bytes() and a.read_bytes() == b.read_bytes()


# SHA-256 of run-protocol CSVs as written before the referee ran in blocks.
PINNED_PROTOCOL_CSVS = {
    ("--n", "64", "--mode", "amplified", "--instances", "40",
     "--copies", "500", "--seed", "0"):
        "38c744e4026dc0f5cda5a3fb124d415aa3fd79b77ac47d1aebb0d05b620c1f27",
    ("--n", "16", "--mode", "promise_yes", "--instances", "3",
     "--copies", "2000", "--seed", "1"):
        "a3eaaef913540d37f4719a29930ddb1e8fdbc0066b668967591b6ad94d78a2e9",
    # An 11-qubit state: every kernel, on amplitudes held as complex128 when
    # this digest was taken and as float64 since.
    ("--n", "1024", "--mode", "amplified", "--instances", "8",
     "--copies", "500", "--seed", "0"):
        "f97a29d5803d34a94772b701f72068d14d7320cd975f148b529b9df67b4731b7",
}
# SHA-256 of promise-mode CSVs at the default copy count, default_copies(1/3),
# as written when that count needed an explicit --slow.
PINNED_PROMISE_CSVS = {
    ("--mode", "promise_yes", "--seed", "1"):
        "0f544d8d4003f6df329a0cb2281e5e8fb9a7f159f8ddc2d1deba1f9ab2d3d784",
    ("--mode", "promise_no", "--seed", "3"):
        "52185e770f9c2e4ee2984a03116af9f6e55c8c02a3b6b5cef46d8cd21b8d0acc",
}
WORKLOAD = ["run-protocol", "--n", "64", "--mode", "amplified",
            "--instances", "40", "--copies", "500"]

# N and copies at which a run-protocol block holds BLOCK instances.
BLOCK_N, BLOCK_COPIES = 16, 160_000
BLOCK = _rng.BLOCK_BYTES // (8 * (2 * BLOCK_N + BLOCK_COPIES // 8 + 1))


def summary_of(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def one_state_p_one(x, y) -> float:
    """The referee on one instance, gate by gate on Alice's register."""
    half = x.n.bit_length() - 1
    state = StateVector(half, x.signs * y.signs / math.sqrt(x.n))
    for gate in referee_gates(half):
        apply_gate(state, gate)
    return swap_test_probability(state, half - 1)


class TestRunProtocolBlocks:
    @pytest.mark.parametrize("args, digest", PINNED_PROTOCOL_CSVS.items())
    def test_csv_pinned(self, args, digest, tmp_path):
        out = tmp_path / "runs.csv"
        assert run(["run-protocol", *args, "--out", str(out)]) == EXIT_PASS
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("args, digest", PINNED_PROMISE_CSVS.items())
    def test_promise_default_copies_pinned(self, args, digest, tmp_path,
                                           capsys):
        out = tmp_path / "runs.csv"
        assert run(["run-protocol", "--n", "16", "--instances", "2", *args,
                    "--out", str(out)]) == EXIT_PASS
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        assert summary_of(capsys)["copies"] == default_copies(
            ForrParams(16), 1.0 / 3.0)

    @pytest.mark.parametrize("instances",
                             sorted({1, 2, BLOCK - 1, BLOCK, BLOCK + 1}))
    def test_blocks_match_one_instance_runs(self, instances, tmp_path,
                                            monkeypatch):
        assert BLOCK == 3
        seen = []
        real = protocol.swap_test_probability

        def spy(state, control):
            p = real(state, control)
            seen.append(np.array(p, ndmin=1))
            return p
        monkeypatch.setattr(protocol, "swap_test_probability", spy)
        out = tmp_path / "runs.csv"
        seed = 6
        assert run(["run-protocol", "--n", str(BLOCK_N), "--copies",
                    str(BLOCK_COPIES), "--instances", str(instances),
                    "--seed", str(seed), "--out", str(out)]) == EXIT_PASS
        assert [p.size for p in seen] == [
            min(BLOCK, instances - start)
            for start in range(0, instances, BLOCK)]
        batched = np.concatenate(seen)
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == instances

        monkeypatch.setattr(protocol, "swap_test_probability", real)
        params = ForrParams(BLOCK_N)
        for idx, row in enumerate(rows):
            mode = (InstanceMode.PLANTED_YES, InstanceMode.UNIFORM_NO)[idx % 2]
            inst = generate_instance(params, mode,
                                     _rng.derive(seed, "instance", idx))
            assert batched[idx] == one_state_p_one(inst.x, inst.y)
            cfg = QuantumProtocolConfig(
                params, copies=BLOCK_COPIES, threshold=0.7,
                seed=_rng.derive(seed, "copies", idx))
            want = run_quantum_protocol(inst.x, inst.y, cfg)
            assert row["instance_id"] == str(idx)
            assert row["forr"] == repr(inst.forr_value)
            assert row["ones_fraction"] == repr(want.ones_fraction)
            assert row["decision"] == want.decision.value
            assert row["seed"] == str(cfg.seed)


class TestOversizedInput:
    def test_state_too_large_exits_two_before_any_instance(self, monkeypatch,
                                                           capsys):
        from forrlab import cli

        def no_instances(*args, **kwargs):
            raise AssertionError("instance generated before the size check")
        monkeypatch.setattr(cli, "generate_instance", no_instances)
        code = run(["run-protocol", "--n", str(1 << 40), "--instances", "1",
                    "--copies", "1"])
        assert code == EXIT_USAGE
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("feasibility error: 41 qubits need")

    def test_copy_bits_too_large_exits_two(self, capsys):
        code = run(["run-protocol", "--n", "64", "--copies",
                    "99999999999999999"])
        assert code == EXIT_USAGE
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("feasibility error: ")


def no_instances(*args, **kwargs):
    raise AssertionError("instance generated before the size check")


class TestCopyBitCap:
    def test_eps_override_copy_count_refused(self, capsys):
        code = run(["run-protocol", "--n", "16", "--mode", "promise_yes",
                    "--instances", "1", "--eps-override", "1e-9"])
        assert code == EXIT_USAGE
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("feasibility error: ")
        assert "bytes of copy bits, over 1073741824" in err_lines[0]

    @pytest.mark.parametrize("eps", ["1e-160", "1e-200"])
    def test_copy_count_beyond_float_range_refused(self, eps, capsys):
        code = run(["run-protocol", "--n", "16", "--mode", "promise_yes",
                    "--instances", "1", "--eps-override", eps])
        assert code == EXIT_USAGE
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith(
            f"feasibility error: eps = {float(eps)!r} needs a copy count")

    def test_small_cap_refuses_before_the_generation_core(self, monkeypatch,
                                                          capsys):
        from forrlab import cli, quantum_sim
        monkeypatch.setattr(quantum_sim, "MAX_STATE_BYTES", 1 << 10)
        monkeypatch.setattr(cli, "instance_rows", no_instances)
        code = run(["run-protocol", "--n", "16", "--instances", "1",
                    "--copies", "1025"])
        assert code == EXIT_USAGE
        err_lines = capsys.readouterr().err.splitlines()
        assert err_lines == ["feasibility error: 1025 copies need 1025 bytes "
                             "of copy bits, over 1024"]

    def test_copies_at_the_cap_run(self, monkeypatch, capsys):
        from forrlab import quantum_sim
        monkeypatch.setattr(quantum_sim, "MAX_STATE_BYTES", 1 << 10)
        assert run(["run-protocol", "--n", "16", "--instances", "1",
                    "--copies", "1024"]) == EXIT_PASS
        assert summary_of(capsys)["copies"] == 1024

    def test_state_too_large_exits_two_before_the_core(self, monkeypatch,
                                                       capsys):
        from forrlab import cli
        monkeypatch.setattr(cli, "instance_rows", no_instances)
        code = run(["run-protocol", "--n", str(1 << 40), "--instances", "1",
                    "--copies", "1"])
        assert code == EXIT_USAGE
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("feasibility error: 41 qubits need")


# SHA-256 of gen-instances JSON lines and run-protocol CSVs as written when
# each instance was generated on its own, and as written when planted flips
# were rounded from a constant row and copy bits came from gen.uniform (the
# benchmark's run-protocol configuration and a planted_yes run at seed 3).
PINNED_GENERATOR_OUTPUTS = {
    ("gen-instances", "--mode", "planted_yes", "--n", "64", "--count", "30",
     "--seed", "4"):
        "461087c52007299f8cf717b6642f811e3b979dfb30cc5ad61393bcc86c8bd5f7",
    ("gen-instances", "--mode", "promise_yes", "--n", "16", "--count", "10",
     "--seed", "4"):
        "fda84ecfb90b848152477ad5904e4118d3e769a046f81d9c021d5985f44eb5b3",
    ("gen-instances", "--mode", "promise_no", "--n", "16", "--count", "10",
     "--seed", "5"):
        "dbda5cc8ac14395b76fb96582e550ed5ab1085d1633f470cb99b3215a9e7ea96",
    ("gen-instances", "--mode", "uniform_no", "--n", "64", "--count", "10",
     "--seed", "6"):
        "4aa79e337838dadaca4d1dabf9b8533e2eb3ee61c1f759c222776a6770bbe703",
    ("run-protocol", "--mode", "planted_yes", "--n", "64", "--instances", "9",
     "--copies", "300", "--seed", "5"):
        "de37cafd27ff98c45bf95fcd27567c448524c83ead41f07368d9513bc1a4e998",
    ("run-protocol", "--mode", "uniform_no", "--n", "64", "--instances", "9",
     "--copies", "300", "--seed", "5"):
        "1d7b52a0c4b977dbb70708a74995ace786710eaa9c593ebab5e104b6d4d63add",
    ("run-protocol", "--n", "64", "--mode", "amplified", "--instances", "40",
     "--copies", "500", "--seed", "1"):
        "190bf496b9bb232d898065bd0cedda764b16f453224023c860c609cc2b2699b2",
    ("gen-instances", "--n", "64", "--mode", "planted_yes", "--count", "8",
     "--seed", "3"):
        "8e9f23665eeaac7304c18393d7a0c019fb9daf834397d01a120a89ce51b8b466",
}


@pytest.mark.parametrize("args, digest", PINNED_GENERATOR_OUTPUTS.items(),
                         ids=lambda v: f"{v[0]}-{v[2]}" if isinstance(v, tuple) else "")
def test_generator_output_pinned(args, digest, tmp_path, capsys):
    out = tmp_path / "out"
    assert run([*args, "--out", str(out)]) == EXIT_PASS
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    if args[0] == "gen-instances":
        capsys.readouterr()
        assert run(list(args)) == EXIT_PASS
        assert capsys.readouterr().out.encode() == out.read_bytes()


# SHA-256 of sampler outputs: the benchmark's verify-moments configuration,
# as written when its moment checks came to share one Gaussian draw, and
# sample-dist's Gaussian and sign samplers, as written when the normals
# became numpy's ziggurat draws.
PINNED_SAMPLER_OUTPUTS = {
    ("verify-moments", "--n", "16", "--samples", "16384", "--seed", "1"):
        "bfcd6373c0d98255eb584ecab2341a5720f952fd13f3193e829eecf784317975",
    ("sample-dist", "--n", "64", "--samples", "20000", "--dist", "gaussian",
     "--seed", "2"):
        "e5acdead83fe1014d1d6c789f4e6613f2495a858ce6b4c908aa791945366bfdd",
    ("sample-dist", "--n", "16", "--samples", "40000", "--dist", "signs",
     "--seed", "2"):
        "47882ac6822bebfe115fe359e7698818608bb357a245f71f48a6d4f30646efa0",
}


@pytest.mark.parametrize("args, digest", PINNED_SAMPLER_OUTPUTS.items(),
                         ids=lambda v: "-".join(v[::2]) if isinstance(v, tuple)
                         else "")
def test_sampler_output_pinned(args, digest, tmp_path):
    out = tmp_path / "out"
    assert run([*args, "--out", str(out)]) == EXIT_PASS
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# Switches off numpy's AVX-512 (X86_V4) and AVX2 (X86_V3) kernels, leaving
# its x86-64-v2 baseline; numpy reads the variable when it is imported.
BASELINE_ONLY = "X86_V4,AVX512_ICL,AVX512_SPR,X86_V3"


@pytest.mark.parametrize("args, digest", PINNED_SAMPLER_OUTPUTS.items(),
                         ids=lambda v: "-".join(v[::2]) if isinstance(v, tuple)
                         else "")
def test_sampler_output_same_on_every_cpu_path(args, digest, tmp_path):
    # Each pinned command in a child process, with numpy's SIMD kernels and
    # without them: the Gaussians must not depend on the path numpy takes.
    src = Path(cli.__file__).resolve().parents[1]
    env = {key: value for key, value in os.environ.items()
           if key != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    baseline = {**env, "NPY_DISABLE_CPU_FEATURES": BASELINE_ONLY}
    # numpy raises for a baseline feature and warns for one it does not
    # dispatch (another CPU family or build): either way the run would not
    # take the path this test means.
    probe = subprocess.run(
        [sys.executable, "-W", "error::ImportWarning", "-c", "import numpy"],
        env=baseline, capture_output=True, text=True)
    if probe.returncode:
        lines = probe.stderr.strip().splitlines()
        start = max((i for i, line in enumerate(lines)
                     if re.match(r"\w+(Error|Warning): ", line)), default=0)
        pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES={BASELINE_ONLY}: "
                    + " ".join(lines[start:]))
    digests = []
    for name, child_env in (("simd", env), ("baseline", baseline)):
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "forrlab.cli", *args,
                        "--out", str(out)], env=child_env,
                       capture_output=True, check=True)
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests == [digest, digest]


def attempt_counts(capsys) -> tuple[int, int]:
    """(total, max) from the attempts line gen-instances prints on stderr."""
    line, = capsys.readouterr().err.splitlines()
    match = re.fullmatch(r"# attempts: (\d+) total, (\d+) max over \d+ "
                         r"instances", line)
    assert match, line
    return int(match[1]), int(match[2])


class TestGenInstancesAttempts:
    @pytest.mark.parametrize("mode", ["planted_yes", "uniform_no"])
    def test_one_attempt_each(self, mode, tmp_path, capsys):
        assert run(["gen-instances", "--n", "16", "--mode", mode, "--count",
                    "7", "--out", str(tmp_path / "inst.jsonl")]) == EXIT_PASS
        assert attempt_counts(capsys) == (7, 1)

    def test_promise_counts_rejections(self, tmp_path, capsys):
        count = 10
        out = tmp_path / "inst.jsonl"
        assert run(["gen-instances", "--n", "16", "--mode", "promise_yes",
                    "--count", str(count), "--seed", "4",
                    "--out", str(out)]) == EXIT_PASS
        total, most = attempt_counts(capsys)
        assert total >= count and 1 <= most <= total - count + 1
        params = ForrParams(16)
        insts = generate_instance(
            params, ["promise_yes"] * count,
            [_rng.derive(4, "instance", idx) for idx in range(count)])
        assert total == sum(inst.attempts for inst in insts)
        assert most == max(inst.attempts for inst in insts)
        assert [inst.to_json() for inst in insts] == \
            out.read_text().splitlines()


class TestRunProtocolSelfCheck:
    @pytest.mark.parametrize("seed", range(4))
    def test_workload_unflagged(self, seed, capsys):
        assert run(WORKLOAD + ["--seed", str(seed)]) == EXIT_PASS
        summary = summary_of(capsys)
        assert 0.0 < summary["max_abs_z"] <= 5.0
        assert summary["z_flagged"] is False

    def test_wrong_referee_probability_flagged(self, monkeypatch, tmp_path,
                                               capsys):
        real = protocol.swap_test_probability
        monkeypatch.setattr(protocol, "swap_test_probability",
                            lambda state, control: 1.0 - real(state, control))
        out = tmp_path / "runs.csv"
        # A flagged run is a failed self-check: exit 1, CSV still written.
        assert run(WORKLOAD + ["--seed", "0", "--out", str(out)]) == 1
        summary = summary_of(capsys)
        assert summary["max_abs_z"] > cli.z_flag(40)
        assert summary["z_flagged"] is True
        with open(out) as fh:
            assert len(list(csv.DictReader(fh))) == 40

    @pytest.mark.parametrize("instances", [1, 40, 200, 10 ** 6, 10 ** 9])
    def test_flag_threshold_is_the_normal_quantile(self, instances):
        # Phi^{-1}(1 - 1e-6 / (2 instances)), taken from the lower tail,
        # where the quantile keeps its precision.
        from statistics import NormalDist
        want = -NormalDist().inv_cdf(1e-6 / (2 * instances))
        assert cli.z_flag(instances) == pytest.approx(want, rel=1e-12)

    def test_zero_standard_error(self):
        from forrlab.cli import _copy_z
        assert _copy_z(1.0, 1.0, 10) == 0.0
        assert _copy_z(0.0, 0.0, 10) == 0.0
        assert _copy_z(0.9, 1.0, 10) == math.inf
        assert _copy_z(0.5, 0.5, 100) == 0.0
        assert _copy_z(0.6, 0.5, 100) == pytest.approx(2.0)
