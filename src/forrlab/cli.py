"""Seeded experiment runner.

Every subcommand draws each random stream from derive(--seed, purpose,
index), emits machine-readable records (CSV with a header for tables, JSON
on stdout for single-object summaries), and exits 0 on pass, 1 on an audit
failure, 2 on a usage error.  Identical (config, seed) produces
byte-identical output files; wall-clock timings are reported on the console
only so files stay reproducible.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time

import numpy as np

from ._bits import f2_inner_sign
from ._record import Record
from ._rng import chunk_sizes, derive, fan_out, mc_means, row_blocks, substream
from .boolean_fourier import random_indicator_violations, subcube_violations
from .errors import ForrlabError, ResourceLimitError
from .forrelation_dist import (
    ForrParams,
    InstanceMode,
    Label,
    chunked,
    forr,
    forrelation_rows,
    gaussian_rows,
    generate_instance,
    instance_rows,
    moment_sums,
)
from .protocol import (
    AUDIT_BYTES,
    DENSE_CAP,
    QuantumProtocolConfig,
    advantage,
    check_partition_size,
    default_copies,
    forrelation_probe_partition,
    l2_audit,
    pair_parity_mass,
    pair_parity_partition,
    random_protocol_partition,
    run_quantum_protocol,
    trivial_partition,
)
from .quantum_sim import check_state_size

EXIT_PASS = 0
EXIT_AUDIT_FAILURE = 1
EXIT_USAGE = 2

LOW_POWER_SAMPLES = 100_000
PAIR_PARITY_PAIRS = (1, 3)  # fourier-audit adversaries, 4 and 64 cells
EXACT_TOL = 1e-12
AMPLIFIED_THRESHOLD = 0.7  # midpoint of per-copy rates ~0.5 (uniform) and ~0.9 (planted)
# Chance that run-protocol flags a run whose copy bits follow their exact
# accept probabilities (see z_flag).
FLAG_PROBABILITY = 1e-6

RESULT_COLUMNS = ["experiment", "subcommand", "N", "eps", "seed", "samples",
                  "copies", "mode", "metric", "estimate", "standard_error",
                  "bound", "passed", "flags"]


class ResultRecord(Record):
    """One audited quantity; self-describing enough to re-run from the row.
    ``wall_time`` is shown on the console only, never written to files.
    Mutable, and equal only to itself."""

    __slots__ = ("experiment", "subcommand", "metric", "estimate",
                 "standard_error", "bound", "passed", "N", "eps", "seed",
                 "samples", "copies", "mode", "flags", "wall_time")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, experiment: str, subcommand: str, metric: str,
                 estimate: float | str, standard_error: float | str = "exact",
                 bound: str = "", passed: bool | None = None,
                 N: int | None = None, eps: float | None = None,
                 seed: int | None = None, samples: int | None = None,
                 copies: int | None = None, mode: str = "", flags: str = "",
                 wall_time: float = 0.0):
        self.experiment = experiment
        self.subcommand = subcommand
        self.metric = metric
        self.estimate = estimate
        self.standard_error = standard_error
        self.bound = bound
        self.passed = passed
        self.N = N
        self.eps = eps
        self.seed = seed
        self.samples = samples
        self.copies = copies
        self.mode = mode
        self.flags = flags
        self.wall_time = wall_time

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
    t0 = time.perf_counter()

    def record(name: str, metric: str, estimate, **columns):
        records.append(ResultRecord(
            experiment=f"{subcommand}:{name}", subcommand=subcommand,
            metric=metric, estimate=estimate,
            wall_time=time.perf_counter() - t0,
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
    t0 = time.perf_counter()
    params = _params(args)
    gen = substream(derive(args.seed, "pick", 0), 0)
    records, add = recorder(
        "verify-moments", N=params.N, eps=params.eps, seed=args.seed,
        samples=args.samples,
        flags="low_power" if args.samples < LOW_POWER_SAMPLES else "")
    # Every moment check is collected first; one shared Gaussian draw
    # estimates them all, and one mc_means call runs it with the
    # mean-forrelation check.
    sets, checks = [], []

    def check(metric, s_set, t_set, bound, ok):
        sets.append((s_set, t_set))
        checks.append((metric, bound, ok))

    # Pair moments: value eps N^{-1/2} (-1)^{<i,j>} for 20 random pairs.
    for _ in range(20):
        i = int(gen.integers(params.N))
        j = int(gen.integers(params.N))
        want = params.eps * f2_inner_sign(i, j) / math.sqrt(params.N)
        check(f"pair_moment[i={i},j={j}]", [i], [j],
              f"|est - {want:.3e}| <= 5 se",
              lambda est, want=want:
                  abs(est.estimate - want) <= 5 * est.standard_error)

    # Unequal-size moments vanish.
    for _ in range(20):
        s_size = int(gen.integers(0, 4))
        t_size = int((s_size + 1 + gen.integers(3)) % 4)
        s_set = list(map(int, gen.choice(params.N, size=s_size, replace=False)))
        t_set = list(map(int, gen.choice(params.N, size=t_size, replace=False)))
        check(f"unequal_moment[|S|={s_size},|T|={t_size}]", s_set, t_set,
              "|est| <= 5 se",
              lambda est: abs(est.estimate) <= 5 * est.standard_error)

    # Magnitude cap |moment| <= eps^|S| for equal sizes up to 3.
    for size in (1, 1, 2, 2, 3, 3):
        s_set = list(map(int, gen.choice(params.N, size=size, replace=False)))
        t_set = list(map(int, gen.choice(params.N, size=size, replace=False)))
        limit = params.eps ** size
        check(f"moment_cap[|S|=|T|={size}]", s_set, t_set,
              f"|est| <= {limit:.3e} + 5 se",
              lambda est, limit=limit:
                  abs(est.estimate) <= limit + 5 * est.standard_error)

    # The moment rows share one draw, so they are dependent, and a set
    # picked twice gets the same row twice.  Each row alone is still the
    # mean of i.i.d. products with its own se, and the union bound
    # P(some row fails) <= sum of P(row fails) holds under any dependence,
    # so a correct sampler fails a run with no more than the probability
    # bound it had when every check drew its own rows.
    draws = {"moments": (moment_sums(params, sets),
                         derive(args.seed, "moment", 0))}

    # Mean forrelation of the sign distribution is at least eps/2.  The
    # bound needs small eps: truncation is common at an override near 1,
    # so an override run gets no verdict, as in advantage.  Stream index
    # len(sets), 46, is the stream this row has always read.
    draws["mean_forrelation"] = (
        lambda gen, k: forr(forrelation_rows(gen, params, k)),
        derive(args.seed, "moment", len(sets)))
    checks.append((
        "mean_forrelation", f"est >= eps/2 = {params.eps / 2:.3e} - 3 se",
        None if args.eps_override is not None else
        lambda est: est.estimate >= params.eps / 2 - 3 * est.standard_error))

    # A product of d factors of variance eps squares to about eps^d.  Below
    # the smallest normal double the sums of squares underflow, so every
    # standard error would read 0 and the rows fail however close they are.
    tiny = np.finfo(float).tiny
    degree = max(len(s_set) + len(t_set) for s_set, t_set in sets)
    if params.eps ** degree < tiny:
        raise ValueError(
            f"--eps-override {params.eps:g} is too small: moments of degree "
            f"{degree} square to below {tiny:.3g}, so their standard "
            f"errors underflow")
    # Each draw's busy seconds, summed over its chunks on every thread.
    busy = {name: [] for name in draws}

    def timed(name, draw):
        def run(gen, k):
            start = time.perf_counter()
            try:
                return draw(gen, k)
            finally:
                busy[name].append(time.perf_counter() - start)
        return run

    jobs = [(timed(name, draw), seed) for name, (draw, seed) in draws.items()]
    for (metric, bound, ok), est in zip(checks, mc_means(jobs, args.samples)):
        add(metric, metric, est.estimate, standard_error=est.standard_error,
            bound=bound, passed=ok(est) if ok else None)
    code = finish(args, records)
    chunks = len(jobs) * len(chunk_sizes(args.samples))
    times = ", ".join(f"{name} {sum(spans):.3f}s"
                      for name, spans in busy.items())
    print(f"# checks: {len(checks)}, {len(jobs)} draws ({times}), {chunks} "
          f"chunks on {fan_out(chunks)} threads in "
          f"{time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# run-protocol

PROTOCOL_CSV_COLUMNS = ["instance_id", "N", "eps", "forr", "copies",
                        "ones_fraction", "decision", "qubits_sent",
                        "gate_count", "seed"]


def _copy_z(fraction: float, p: float, copies: int) -> float:
    """|fraction - p| in standard errors of the mean of ``copies``
    Bernoulli(p) bits; with a zero standard error, 0 on a match and
    infinity otherwise."""
    se = math.sqrt(max(p * (1.0 - p), 0.0) / copies)
    if se == 0.0:
        return 0.0 if fraction == p else math.inf
    return abs(fraction - p) / se


def z_flag(instances: int) -> float:
    """The |z| past which a run of ``instances`` is flagged:
    Phi^{-1}(1 - FLAG_PROBABILITY / (2 instances)), so that by the union
    bound over instances, and the normal approximation within each, a
    correct run flags with probability at most FLAG_PROBABILITY.  Found by
    bisection on ``math.erfc``: importing ``statistics`` for its inverse
    would add to the start-up of every run."""
    tail = FLAG_PROBABILITY / instances  # two-sided: P(|Z| > z)
    lo, hi = 0.0, 40.0
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return hi
        if math.erfc(mid / math.sqrt(2.0)) > tail:
            lo = mid
        else:
            hi = mid


def cmd_run_protocol(args) -> int:
    params = _params(args)
    mode = args.mode
    if mode == "amplified":
        threshold = args.threshold if args.threshold is not None else AMPLIFIED_THRESHOLD
        copies = args.copies if args.copies is not None else 500
    else:
        threshold = args.threshold
        copies = (args.copies if args.copies is not None
                  else default_copies(params, 1.0 / 3.0))

    # One referee state per block, and each instance's copy bits (the
    # config checks them): refuse an oversized run before any instance is
    # drawn.
    check_state_size(params.n + 1)
    run_cfg = QuantumProtocolConfig(params, copies=copies, threshold=threshold)
    rows = []
    correct = 0
    total_qubits = 0
    total_gates = 0
    max_abs_z = 0.0
    t0 = time.perf_counter()
    # A block's amplitudes (2N float64) and copy bits stay near BLOCK_BYTES.
    for block in row_blocks(args.instances, 2 * params.N + copies // 8 + 1):
        ids = range(block.start, block.stop)
        if mode == "amplified":  # alternate planted YES and uniform NO
            modes = [(InstanceMode.PLANTED_YES,
                      InstanceMode.UNIFORM_NO)[idx % 2] for idx in ids]
        else:
            modes = [InstanceMode(mode)] * len(ids)
        xs, ys, values, _ = instance_rows(
            params, modes, [derive(args.seed, "instance", idx) for idx in ids])
        cfgs = [QuantumProtocolConfig(params, copies=copies,
                                      threshold=threshold,
                                      seed=derive(args.seed, "copies", idx))
                for idx in ids]
        block_stats = run_quantum_protocol(xs, ys, cfgs)
        for idx, inst_mode, value, cfg, stats in zip(
                ids, modes, values.tolist(), cfgs, block_stats):
            want = Label.YES if inst_mode in (
                InstanceMode.PROMISE_YES, InstanceMode.PLANTED_YES) else Label.NO
            correct += stats.decision is want
            total_qubits += stats.qubits_sent
            total_gates += stats.gate_count
            max_abs_z = max(max_abs_z, _copy_z(stats.ones_fraction,
                                               0.5 + value / 2, copies))
            rows.append([str(idx), str(params.N), repr(params.eps),
                         repr(value), str(copies),
                         repr(stats.ones_fraction), stats.decision.value,
                         str(stats.qubits_sent), str(stats.gate_count),
                         str(cfg.seed)])

    write_csv(args.out, PROTOCOL_CSV_COLUMNS, rows)
    rate = correct / args.instances
    summary = {
        "subcommand": "run-protocol", "mode": mode, "N": params.N,
        "eps": params.eps, "instances": args.instances, "copies": copies,
        "threshold": run_cfg.decision_threshold,
        "success_rate": rate,
        "qubits_sent_per_instance": total_qubits // args.instances,
        "gate_count_per_instance": total_gates // args.instances,
        "seed": args.seed,
        "max_abs_z": max_abs_z,
        "z_flagged": max_abs_z > z_flag(args.instances),
    }
    print(json.dumps(summary))
    print(f"# success {correct}/{args.instances} in "
          f"{time.perf_counter() - t0:.2f}s", file=sys.stderr)
    # A flag is a failed self-check: the simulator disagrees with the exact
    # accept probabilities.  The CSV is written all the same.
    return EXIT_AUDIT_FAILURE if summary["z_flagged"] else EXIT_PASS


# ---------------------------------------------------------------------------
# fourier-audit

def _random_partition_blocks(length: int, args):
    """fourier-audit's random partitions in order, partition idx of cost
    1 + idx % max_cost, in blocks whose cell masks hold about AUDIT_BYTES,
    so memory stays flat however many partitions are audited."""
    block, size = [], 0
    for idx in range(args.partitions):
        p = random_protocol_partition(length, 1 + idx % args.max_cost,
                                      derive(args.seed, "partition", idx))
        block.append(p)
        size += p.alice.nbytes + p.bob.nbytes
        if size >= AUDIT_BYTES:
            yield block
            block, size = [], 0
    if block:
        yield block


def cmd_fourier_audit(args) -> int:
    params = _params(args)
    length = params.input_length
    if length > DENSE_CAP:
        raise ValueError(
            f"dense Fourier audit needs input length 2N <= {DENSE_CAP}, "
            f"got {length}")
    # Partition idx has cost 1 + idx % max_cost: refuse the largest one
    # drawn before any is.
    check_partition_size(length, min(args.max_cost, args.partitions))
    records, record = recorder("fourier-audit", N=params.N, eps=params.eps,
                               seed=args.seed)

    triv = l2_audit(trivial_partition(length))
    record("trivial", "l2_mass[trivial]", triv.l2_mass,
           bound=f"<= {triv.bound}", passed=triv.passed,
           samples=args.partitions)

    worst = 0.0
    failures = 0
    for block in _random_partition_blocks(length, args):
        for audit in l2_audit(block):
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
    v, c = random_indicator_violations(10, 2, 1000,
                                       derive(args.seed, "indicators", 0))
    record("levelk-random", f"level2_violations[{c} random indicators n=10]",
           v, bound=level_k, passed=v == 0)

    # Adversaries whose level-2 mass is known exactly: a wrong audit fails.
    for m in PAIR_PARITY_PAIRS:
        mass = l2_audit(pair_parity_partition(length, m)).l2_mass
        want = pair_parity_mass(m)
        record(f"adversary-pairs{m}",
               f"l2_mass[pair parity m={m} c={2 * m}]", mass,
               bound=f"== {want} +- {EXACT_TOL}",
               passed=abs(mass - want) <= EXACT_TOL)
    code = finish(args, records)
    # H of a partition on a window of k coordinates has its level-2 mass on
    # the C(k, 2) pairs inside it, and sum H^(S)^2 <= 1 since |H| <= 1, so
    # by Cauchy-Schwarz the mass is at most sqrt(C(k, 2)).  Below the least
    # random-row bound, 120 at cost 1, no valid partition can fail it.
    ceiling = math.sqrt(math.comb(length, 2))
    print(f"# l2 window ceiling sqrt(C({length}, 2)) = {ceiling:.4f} vs "
          f"120 c^2 >= 120: the l2_violations row is "
          + ("vacuous, no valid partition can fail it" if ceiling < 120
             else "not vacuous"))
    return code


# ---------------------------------------------------------------------------
# advantage

def cmd_advantage(args) -> int:
    records, record = recorder("advantage", seed=args.seed,
                               samples=args.samples)
    for n_val in args.n or [16, 64, 256]:
        params = ForrParams(n_val, eps_override=args.eps_override)
        triv = advantage(trivial_partition(params.input_length), params,
                         args.samples, derive(args.seed, "advantage", 0))
        record(f"trivial:N={n_val}", "advantage[trivial]", triv.estimate,
               standard_error=triv.standard_error, bound="exactly 0",
               passed=triv.estimate == 0.0, N=n_val, eps=params.eps)
        probe = advantage(forrelation_probe_partition(params), params,
                          args.samples, derive(args.seed, "advantage", 1))
        # The probe's advantage is eps/sqrt(N) up to truncation terms of
        # order e^(-1/(2 eps)): negligible at the derived eps, but not at an
        # override near 1, so an override run gets no verdict.
        want = params.eps / math.sqrt(n_val)
        ok = abs(probe.estimate - want) <= 5 * probe.standard_error
        record(f"probe:N={n_val}", "advantage[probe]", probe.estimate,
               standard_error=probe.standard_error,
               bound=f"|est - eps/sqrt(N)| <= 5 se with eps/sqrt(N) = "
                     f"{want:.2e}",
               passed=ok if args.eps_override is None else None,
               N=n_val, eps=params.eps)
    return finish(args, records)


# ---------------------------------------------------------------------------
# gen-instances / sample-dist

def cmd_gen_instances(args) -> int:
    params = _params(args)
    lines, attempts = [], []
    for block in row_blocks(args.count, 2 * params.input_length):
        ids = range(block.start, block.stop)
        for inst in generate_instance(
                params, [InstanceMode(args.mode)] * len(ids),
                [derive(args.seed, "instance", idx) for idx in ids]):
            lines.append(inst.to_json())
            attempts.append(inst.attempts)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"# attempts: {sum(attempts)} total, {max(attempts)} max over "
          f"{args.count} instances", file=sys.stderr)
    return EXIT_PASS


def cmd_sample_dist(args) -> int:
    params = _params(args)
    # Each chunk is scored as it is drawn, so only the forrelation values
    # of earlier chunks are kept.
    if args.dist == "gaussian":
        # gaussian_rows draws its float64 rows in one piece, reading gen
        # row by row: so a chunk is drawn and scored one row block at a
        # time, with the bits of a whole draw.
        def score(gen, k):
            return np.concatenate([
                forr(gaussian_rows(gen, params, block.stop - block.start))
                for block in row_blocks(k, params.input_length)])
    else:  # signs
        def score(gen, k):
            return forr(forrelation_rows(gen, params, k))
    values = chunked(derive(args.seed, "sample", 0), args.samples, score)
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

def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer, got {text!r}") from None


def _power_of_two(text: str) -> int:
    value = _integer(text)
    if value < 4 or value & (value - 1):
        raise argparse.ArgumentTypeError(
            f"N must be a power of two >= 4, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _seed(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    if value >> 64:
        raise argparse.ArgumentTypeError(f"must be below 2^64, got {value}")
    return value


def _probability(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value <= 1.0:  # also false for nan
        raise argparse.ArgumentTypeError(
            f"must be a finite number in [0, 1], got {text}")
    return value


def _out_path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError(f"must name a file, got {text!r}")
    folder = os.path.dirname(text)
    if folder and not os.path.isdir(folder):
        raise argparse.ArgumentTypeError(f"directory {folder!r} does not exist")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    return text


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one stderr line:
    ``PROG: error: MESSAGE``, exit 2.  Sub-parsers are of the same class."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _common(p, samples_default=None):
    p.add_argument("--n", type=_power_of_two, default=64,
                   help="problem half-length N (power of two)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", type=_out_path, default=None,
                   help="output file path (its directory must exist)")
    p.add_argument("--eps-override", type=float, default=None,
                   help="override the derived coupling for exploration")
    if samples_default is not None:
        p.add_argument("--samples", type=int, default=samples_default)


def _verify_moments_args(p):
    _common(p, samples_default=1_000_000)


def _run_protocol_args(p):
    _common(p)
    p.add_argument("--mode", default="amplified",
                   choices=["amplified", "promise_yes", "promise_no",
                            "planted_yes", "uniform_no"])
    p.add_argument("--instances", type=_positive_int, default=100)
    p.add_argument("--copies", type=_positive_int, default=None,
                   help="copies per instance (default: 500 in amplified "
                        "mode, the promise-gap count default_copies(1/3) "
                        "in the other modes)")
    p.add_argument("--threshold", type=_probability, default=None)


def _fourier_audit_args(p):
    _common(p)
    p.set_defaults(n=4)
    p.add_argument("--partitions", type=_positive_int, default=1000)
    p.add_argument("--max-cost", type=_positive_int, default=4)


def _advantage_args(p):
    p.add_argument("--n", type=_power_of_two, action="append", default=None)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", type=_out_path, default=None)
    p.add_argument("--eps-override", type=float, default=None)
    p.add_argument("--samples", type=int, default=100_000)


def _gen_instances_args(p):
    _common(p)
    p.add_argument("--mode", default="planted_yes",
                   choices=[m.value for m in InstanceMode])
    p.add_argument("--count", type=_positive_int, default=10)


def _sample_dist_args(p):
    _common(p, samples_default=10_000)
    p.add_argument("--dist", default="signs",
                   choices=["gaussian", "signs"])


# (name, help, add-arguments function, handler) of every subcommand, in
# the order --help lists them.
SUBCOMMANDS = (
    ("verify-moments", "Monte Carlo audit of the Gaussian moments and the "
                       "mean forrelation of the sign distribution",
     _verify_moments_args, cmd_verify_moments),
    ("run-protocol", "run the quantum protocol over sampled instances",
     _run_protocol_args, cmd_run_protocol),
    ("fourier-audit", "exact level-2 mass audit of random protocol "
                      "partitions",
     _fourier_audit_args, cmd_fourier_audit),
    ("advantage", "distinguishing advantage of built-in probe partitions",
     _advantage_args, cmd_advantage),
    ("gen-instances", "emit labeled instances as JSON lines",
     _gen_instances_args, cmd_gen_instances),
    ("sample-dist", "sample a distribution and record per-sample "
                    "forrelation",
     _sample_dist_args, cmd_sample_dist),
)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The forrlab parser.  Every subcommand is registered with its help,
    but only the one ``argv[0]`` names, the only one that can run, gets
    its arguments and ``--help``, since each argument added builds a help
    formatter.  With no argv, or one that starts with anything else
    (``--help``, an unknown name), all do, so help and errors read as
    they would with every argument added."""
    parser = _Parser(
        prog="forrlab",
        description="Seeded audits and protocol runs for the lifted "
                    "forrelation lab.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    names = {name for name, *_ in SUBCOMMANDS}
    chosen = argv[0] if argv and argv[0] in names else None
    for name, text, add_arguments, handler in SUBCOMMANDS:
        runs = chosen in (None, name)
        p = sub.add_parser(name, help=text, add_help=runs)
        if runs:
            add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # OSError: --out not writable
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ResourceLimitError, MemoryError) as exc:
        print(f"feasibility error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ForrlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_AUDIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
