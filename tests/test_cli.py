"""Tests for the experiment runner: exit codes, output formats, determinism."""

import csv
import json

import pytest

from forrlab.cli import EXIT_PASS, EXIT_USAGE, main
from forrlab.forrelation_dist import LiftedInstance


def run(args):
    return main(args)


class TestUsageErrors:
    def test_invalid_n(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["verify-moments", "--n", "12"])
        assert err.value.code == EXIT_USAGE

    def test_zero_copies(self, tmp_path):
        code = run(["run-protocol", "--n", "16", "--copies", "0",
                    "--instances", "1"])
        assert code == EXIT_USAGE

    def test_advantage_sample_floor(self):
        code = run(["advantage", "--n", "16", "--samples", "5000"])
        assert code == EXIT_USAGE

    def test_fourier_audit_feasibility(self, capsys):
        code = run(["fourier-audit", "--n", "16"])
        assert code == EXIT_USAGE
        assert "2N <= 16" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("subcommand, flag", [
        ("run-protocol", "--instances"),
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

    def test_paper_mode_requires_slow_or_copies(self, capsys):
        code = run(["run-protocol", "--n", "16", "--mode", "promise_yes",
                    "--instances", "1"])
        assert code == EXIT_USAGE
        assert "--slow" in capsys.readouterr().err


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


@pytest.mark.parametrize("args", [
    ["fourier-audit", "--partitions", "5", "--seed", "2"],
    ["advantage", "--n", "16", "--samples", "10000", "--seed", "3"],
    ["gen-instances", "--n", "16", "--mode", "promise_yes", "--count", "3",
     "--seed", "4"],
    ["sample-dist", "--n", "16", "--dist", "lifted", "--samples", "500",
     "--seed", "5"],
], ids=lambda args: args[0])
def test_byte_identical_reruns(args, tmp_path, capsys):
    a = tmp_path / "a.out"
    b = tmp_path / "b.out"
    assert run(args + ["--out", str(a)]) == EXIT_PASS
    assert run(args + ["--out", str(b)]) == EXIT_PASS
    assert a.read_bytes() and a.read_bytes() == b.read_bytes()
