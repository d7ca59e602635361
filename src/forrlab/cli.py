"""Seeded experiment runner.

Every subcommand draws all randomness from an explicit --seed, emits
machine-readable records (CSV with a header for tables, JSON on stdout for
single-object summaries), and exits 0 on pass, 1 on an audit failure, 2 on
a usage error.  Identical (config, seed) produces byte-identical output
files; wall-clock timings are reported on the console only so files stay
reproducible.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from ._bits import f2_inner_sign
from ._rng import Estimate, mc_mean, substream
from .boolean_fourier import random_indicator_violations, subcube_violations
from .errors import ForrlabError, ResourceLimitError
from .forrelation_dist import (
    ForrParams,
    InstanceMode,
    Label,
    forr,
    forrelation_rows,
    gaussian_moment,
    generate_instance,
    sample_forrelation,
    sample_gaussian,
    sample_lifted,
)
from .protocol import (
    DENSE_CAP,
    QuantumProtocolConfig,
    advantage,
    default_copies,
    forrelation_probe_partition,
    l2_audit,
    random_protocol_partition,
    run_quantum_protocol,
    trivial_partition,
)

EXIT_PASS = 0
EXIT_AUDIT_FAILURE = 1
EXIT_USAGE = 2

LOW_POWER_SAMPLES = 100_000
AMPLIFIED_THRESHOLD = 0.7  # midpoint of per-copy rates ~0.5 (uniform) and ~0.9 (planted)

RESULT_COLUMNS = ["experiment", "subcommand", "N", "eps", "seed", "samples",
                  "copies", "mode", "metric", "estimate", "standard_error",
                  "bound", "passed", "flags"]


@dataclass
class ResultRecord:
    """One audited quantity; self-describing enough to re-run from the row."""

    experiment: str
    subcommand: str
    metric: str
    estimate: float | str
    standard_error: float | str = "exact"
    bound: str = ""
    passed: bool | None = None
    N: int | None = None
    eps: float | None = None
    seed: int | None = None
    samples: int | None = None
    copies: int | None = None
    mode: str = ""
    flags: str = ""
    wall_time: float = 0.0  # console only; never written to files

    def row(self) -> list[str]:
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, float):
                return repr(float(v))
            return str(v)
        return [fmt(getattr(self, c)) for c in RESULT_COLUMNS]


def write_csv(path: str | None, header: list[str], rows) -> None:
    """Write a CSV table with its header row to ``path``, if one is given."""
    if not path:
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def recorder(subcommand: str, **shared):
    """A record list and its appender: ``record(name, metric, estimate,
    **columns)`` adds experiment ``subcommand:name`` with the ``shared``
    columns and the time since the recorder was made."""
    records: list[ResultRecord] = []
    t0 = time.time()

    def record(name: str, metric: str, estimate, **columns):
        records.append(ResultRecord(
            experiment=f"{subcommand}:{name}", subcommand=subcommand,
            metric=metric, estimate=estimate, wall_time=time.time() - t0,
            **shared, **columns))
    return records, record


def _exit_code(records: list[ResultRecord]) -> int:
    bad = [r for r in records if r.passed is False]
    return EXIT_AUDIT_FAILURE if bad else EXIT_PASS


def finish(args, records: list[ResultRecord]) -> int:
    """Write the records to --out, print them, and return the exit code."""
    write_csv(args.out, RESULT_COLUMNS, (rec.row() for rec in records))
    for rec in records:
        status = {True: "pass", False: "FAIL", None: "  - "}[rec.passed]
        se = (rec.standard_error if isinstance(rec.standard_error, str)
              else f"{rec.standard_error:.3g}")
        print(f"[{status}] {rec.metric}: estimate={rec.estimate} se={se} "
              f"{rec.bound} ({rec.wall_time:.2f}s)")
    return _exit_code(records)


def _params(args) -> ForrParams:
    return ForrParams(args.n, eps_override=getattr(args, "eps_override", None))


# ---------------------------------------------------------------------------
# verify-moments

def cmd_verify_moments(args) -> int:
    params = _params(args)
    gen = substream(args.seed, 0)
    records, add = recorder(
        "verify-moments", N=params.N, eps=params.eps, seed=args.seed,
        samples=args.samples,
        flags="low_power" if args.samples < LOW_POWER_SAMPLES else "")

    def record(metric, est: Estimate, bound, passed):
        add(metric, metric, est.estimate, standard_error=est.standard_error,
            bound=bound, passed=passed)

    # Pair moments: value eps N^{-1/2} (-1)^{<i,j>} for 20 random pairs.
    for k in range(20):
        i = int(gen.integers(params.N))
        j = int(gen.integers(params.N))
        est = gaussian_moment(params, [i], [j], args.samples, args.seed + 1 + k)
        want = params.eps * f2_inner_sign(i, j) / math.sqrt(params.N)
        ok = abs(est.estimate - want) <= 5 * est.standard_error
        record(f"pair_moment[i={i},j={j}]", est, f"|est - {want:.3e}| <= 5 se",
               ok)

    # Unequal-size moments vanish.
    for k in range(20):
        s_size = int(gen.integers(0, 4))
        t_size = int((s_size + 1 + gen.integers(3)) % 4)
        s_set = list(map(int, gen.choice(params.N, size=s_size, replace=False)))
        t_set = list(map(int, gen.choice(params.N, size=t_size, replace=False)))
        est = gaussian_moment(params, s_set, t_set, args.samples,
                              args.seed + 100 + k)
        ok = abs(est.estimate) <= 5 * est.standard_error
        record(f"unequal_moment[|S|={s_size},|T|={t_size}]", est,
               "|est| <= 5 se", ok)

    # Magnitude cap |moment| <= eps^|S| for equal sizes up to 3.
    for k, size in enumerate((1, 1, 2, 2, 3, 3)):
        s_set = list(map(int, gen.choice(params.N, size=size, replace=False)))
        t_set = list(map(int, gen.choice(params.N, size=size, replace=False)))
        est = gaussian_moment(params, s_set, t_set, args.samples,
                              args.seed + 200 + k)
        cap = params.eps ** size
        ok = abs(est.estimate) <= cap + 5 * est.standard_error
        record(f"moment_cap[|S|=|T|={size}]", est, f"|est| <= {cap:.3e} + 5 se",
               ok)

    # Mean forrelation of the sign distribution is at least eps/2.
    def draw(gen, k):
        return forr(forrelation_rows(gen, params, k).astype(np.float64))
    est = mc_mean(draw, args.samples, args.seed + 300)
    ok = est.estimate >= params.eps / 2 - 3 * est.standard_error
    record("mean_forrelation", est,
           f"est >= eps/2 = {params.eps / 2:.3e} - 3 se", ok)
    return finish(args, records)


# ---------------------------------------------------------------------------
# run-protocol

PROTOCOL_CSV_COLUMNS = ["instance_id", "N", "eps", "forr", "copies",
                        "ones_fraction", "decision", "qubits_sent",
                        "gate_count", "seed"]


def cmd_run_protocol(args) -> int:
    params = _params(args)
    if args.copies is not None and args.copies < 1:
        raise UsageError("--copies must be positive")

    mode = args.mode
    if mode == "amplified":
        threshold = args.threshold if args.threshold is not None else AMPLIFIED_THRESHOLD
        copies = args.copies if args.copies is not None else 500
    else:
        threshold = args.threshold
        if args.copies is not None:
            copies = args.copies
        elif args.slow:
            copies = default_copies(params, 1.0 / 3.0)
        else:
            need = default_copies(params, 1.0 / 3.0)
            raise UsageError(
                f"mode {mode} at the promise gap needs ~{need} copies; pass "
                f"--slow to accept that or set --copies explicitly")

    rows = []
    correct = 0
    total_qubits = 0
    total_gates = 0
    t0 = time.time()
    for idx in range(args.instances):
        inst_seed = args.seed + 1000 * idx
        if mode == "amplified":  # alternate planted YES and uniform NO
            inst_mode = (InstanceMode.PLANTED_YES, InstanceMode.UNIFORM_NO)[idx % 2]
        else:
            inst_mode = InstanceMode(mode)
        want = Label.YES if inst_mode in (
            InstanceMode.PROMISE_YES, InstanceMode.PLANTED_YES) else Label.NO
        inst = generate_instance(params, inst_mode, inst_seed)
        cfg = QuantumProtocolConfig(params, copies=copies, threshold=threshold,
                                    seed=inst_seed + 7)
        stats = run_quantum_protocol(inst.x, inst.y, cfg)
        correct += stats.decision is want
        total_qubits += stats.qubits_sent
        total_gates += stats.gate_count
        rows.append([str(idx), str(params.N), repr(params.eps),
                     repr(inst.forr_value), str(copies),
                     repr(stats.ones_fraction), stats.decision.value,
                     str(stats.qubits_sent), str(stats.gate_count),
                     str(inst_seed + 7)])

    write_csv(args.out, PROTOCOL_CSV_COLUMNS, rows)
    rate = correct / args.instances
    summary = {
        "subcommand": "run-protocol", "mode": mode, "N": params.N,
        "eps": params.eps, "instances": args.instances, "copies": copies,
        "threshold": cfg.decision_threshold,
        "success_rate": rate,
        "qubits_sent_per_instance": total_qubits // args.instances,
        "gate_count_per_instance": total_gates // args.instances,
        "seed": args.seed,
    }
    print(json.dumps(summary))
    print(f"# success {correct}/{args.instances} in {time.time() - t0:.2f}s",
          file=sys.stderr)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# fourier-audit

def cmd_fourier_audit(args) -> int:
    params = _params(args)
    length = params.input_length
    if length > DENSE_CAP:
        raise UsageError(
            f"dense Fourier audit needs input length 2N <= {DENSE_CAP}, "
            f"got {length}")
    records, record = recorder("fourier-audit", N=params.N, eps=params.eps,
                               seed=args.seed)

    triv = l2_audit(trivial_partition(length))
    record("trivial", "l2_mass[trivial]", triv.l2_mass,
           bound=f"<= {triv.bound}", passed=triv.passed,
           samples=args.partitions)

    worst = 0.0
    failures = 0
    for idx in range(args.partitions):
        cost = 1 + idx % args.max_cost
        audit = l2_audit(random_protocol_partition(length, cost,
                                                   args.seed + idx))
        worst = max(worst, audit.l2_mass)
        failures += not audit.passed
    record("random",
           f"l2_violations[{args.partitions} partitions c<={args.max_cost}]",
           failures, bound=f"max mass {worst:.4f} vs 120 c^2",
           passed=failures == 0, samples=args.partitions)

    level_k = "weight <= alpha^2 (e ln 1/alpha)^2"
    v, c = subcube_violations(min(length, 8), 2)
    record("levelk-subcubes", f"level2_violations[{c} subcube indicators]", v,
           bound=level_k, passed=v == 0)
    v, c = random_indicator_violations(10, 2, 1000, args.seed)
    record("levelk-random", f"level2_violations[{c} random indicators n=10]",
           v, bound=level_k, passed=v == 0)
    return finish(args, records)


# ---------------------------------------------------------------------------
# advantage

def cmd_advantage(args) -> int:
    if args.samples < 10_000:
        raise UsageError("--samples must be at least 10000")
    records, record = recorder("advantage", seed=args.seed,
                               samples=args.samples)
    for n_val in args.n or [16, 64, 256]:
        params = ForrParams(n_val, eps_override=args.eps_override)
        triv = advantage(trivial_partition(params.input_length), params,
                         args.samples, args.seed)
        record(f"trivial:N={n_val}", "advantage[trivial]", triv.estimate,
               standard_error=triv.standard_error, bound="exactly 0",
               passed=triv.estimate == 0.0, N=n_val, eps=params.eps)
        probe = advantage(forrelation_probe_partition(params), params,
                          args.samples, args.seed + 1)
        record(f"probe:N={n_val}", "advantage[probe]", probe.estimate,
               standard_error=probe.standard_error,
               bound=f"~ eps/sqrt(N) = {params.eps / math.sqrt(n_val):.2e}",
               N=n_val, eps=params.eps)
    return finish(args, records)


# ---------------------------------------------------------------------------
# gen-instances / sample-dist

def cmd_gen_instances(args) -> int:
    params = _params(args)
    lines = []
    for idx in range(args.count):
        inst = generate_instance(params, InstanceMode(args.mode),
                                 args.seed + 1000 * idx)
        lines.append(inst.to_json())
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_PASS


def cmd_sample_dist(args) -> int:
    params = _params(args)
    if args.dist == "gaussian":
        rows = sample_gaussian(params, args.seed, samples=args.samples)
        values = forr(rows)
    elif args.dist == "signs":
        rows = sample_forrelation(params, args.seed, samples=args.samples)
        values = forr(rows.astype(np.float64))
    else:  # lifted
        x, y = sample_lifted(params, args.seed, samples=args.samples)
        values = forr((x * y).astype(np.float64))
    write_csv(args.out, ["index", "forr"],
              ([str(i), repr(float(v))] for i, v in enumerate(values)))
    mean = float(values.mean())
    se = float(values.std() / math.sqrt(args.samples))
    print(json.dumps({"subcommand": "sample-dist", "dist": args.dist,
                      "N": params.N, "eps": params.eps, "seed": args.seed,
                      "samples": args.samples, "mean_forr": mean,
                      "se_forr": se}))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# Entry point

class UsageError(Exception):
    pass


def _power_of_two(text: str) -> int:
    value = int(text)
    if value < 4 or value & (value - 1):
        raise argparse.ArgumentTypeError(
            f"N must be a power of two >= 4, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _out_path(text: str) -> str:
    folder = os.path.dirname(text)
    if folder and not os.path.isdir(folder):
        raise argparse.ArgumentTypeError(f"directory {folder!r} does not exist")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forrlab",
        description="Seeded audits and protocol runs for the lifted "
                    "forrelation lab.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, samples_default=None):
        p.add_argument("--n", type=_power_of_two, default=64,
                       help="problem half-length N (power of two)")
        p.add_argument("--seed", type=_nonnegative_int, default=0)
        p.add_argument("--out", type=_out_path, default=None,
                       help="output file path (its directory must exist)")
        p.add_argument("--eps-override", type=float, default=None,
                       help="override the derived coupling for exploration")
        if samples_default is not None:
            p.add_argument("--samples", type=int, default=samples_default)

    p = sub.add_parser("verify-moments",
                       help="Monte Carlo audit of the Gaussian moments and "
                            "the mean forrelation of the sign distribution")
    common(p, samples_default=1_000_000)
    p.set_defaults(func=cmd_verify_moments)

    p = sub.add_parser("run-protocol", help="run the quantum protocol over "
                                            "sampled instances")
    common(p)
    p.add_argument("--mode", default="amplified",
                   choices=["amplified", "promise_yes", "promise_no",
                            "planted_yes", "uniform_no"])
    p.add_argument("--instances", type=_positive_int, default=100)
    p.add_argument("--copies", type=int, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--slow", action="store_true",
                   help="accept the promise-gap copy count (huge)")
    p.set_defaults(func=cmd_run_protocol)

    p = sub.add_parser("fourier-audit", help="exact level-2 mass audit of "
                                             "random protocol partitions")
    common(p)
    p.set_defaults(n=4)
    p.add_argument("--partitions", type=_positive_int, default=1000)
    p.add_argument("--max-cost", type=_positive_int, default=4)
    p.set_defaults(func=cmd_fourier_audit)

    p = sub.add_parser("advantage", help="distinguishing advantage of "
                                         "built-in probe partitions")
    p.add_argument("--n", type=_power_of_two, action="append", default=None)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out", type=_out_path, default=None)
    p.add_argument("--eps-override", type=float, default=None)
    p.add_argument("--samples", type=int, default=100_000)
    p.set_defaults(func=cmd_advantage)

    p = sub.add_parser("gen-instances", help="emit labeled instances as JSON lines")
    common(p)
    p.add_argument("--mode", default="planted_yes",
                   choices=[m.value for m in InstanceMode])
    p.add_argument("--count", type=_positive_int, default=10)
    p.set_defaults(func=cmd_gen_instances)

    p = sub.add_parser("sample-dist", help="sample a distribution and record "
                                           "per-sample forrelation")
    common(p, samples_default=10_000)
    p.add_argument("--dist", default="signs",
                   choices=["gaussian", "signs", "lifted"])
    p.set_defaults(func=cmd_sample_dist)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"feasibility error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ForrlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_AUDIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
