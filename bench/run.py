"""forrlab benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                 # every workload, traced, all metrics
    python3 bench/run.py --self-test     # tiny sizes: checks names, bytes, restore

Each repetition is a fresh ``forrlab`` CLI process (bench/child.py) that runs
one workload at the given seed; processes run one at a time.  A run repeats
the workload until ``--seconds`` have passed (at least MIN_REPS times) and
reports medians: set-up time (interpreter start until ``forrlab.cli`` is
imported, numpy included; SETUP_SAMPLES import-only processes add samples),
time spent in ``cli.main``, and peak resident memory from ``os.wait4``.  With ``--trace 1`` one more repetition runs under
the layer tracer (bench/tracing.py) and the per-layer metrics come from it.

Times are reported at a fixed reference speed.  On a shared machine the
speed of the same code drifts by 20-40% over tens of seconds, far more than
the regressions the benchmark must catch.  So before each repetition a
reference process (bench/reference.py, numpy only) is timed, and the
repetition's set-up and wall times are scaled by REFERENCE_S over the
geometric mean of the reference's five timings.  On a 2-core Xeon this cut
the spread of run medians over seeds from 0.14-0.34 to 0.04-0.10 of the
median; the reference tracks short repetitions best, hence the modest
workload sizes.  The unscaled medians are printed on the details line.

Every repetition passes a correctness gate: exit code 0, no CSV row with
passed=False, protocol success_rate at least SUCCESS_FLOOR, tracer restored
every rebound name, and an output file byte-identical to the first
repetition of the same seed (the traced one included).  The last stdout
line is one JSON object with keys correct, attempted, failed and metrics;
the exit code is 0 only when every repetition passed.  Only standard-library
modules are used here; the program is run from ``src/`` of this checkout.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from tracing import COUNTER_UNITS, SPAN_NAMES, Tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"

MIN_REPS = 3
SETUP_SAMPLES = 5  # import-only processes per run, besides the workload's own
# Speed index of the machine the benchmark was defined on (2-core Xeon,
# Python 3.11.7, numpy 2.4.6): geometric mean of bench/reference.py timings.
REFERENCE_S = 0.025
SUCCESS_FLOOR = 0.95  # protocol success-rate floor of acceptance criterion 03
RUN_LIMIT_S = 160.0   # a child still running this long after the start is killed
THREAD_VARS = ("THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]  # subcommand and fixed flags; --seed and --out are added
    tiny: tuple[str, ...]  # the same subcommand at self-test size
    work: str              # the fixed amount of work one repetition computes


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "moments": Workload(
        ("verify-moments", "--n", "16", "--samples", "16384"),
        ("verify-moments", "--n", "16", "--samples", "10000"),
        "46 gaussian_moment calls x 16384 rows + one 16384-row "
        "mean-forrelation pass, N=16"),
    "protocol_n64": Workload(
        ("run-protocol", "--n", "64", "--mode", "amplified",
         "--instances", "40", "--copies", "500"),
        ("run-protocol", "--n", "64", "--mode", "amplified",
         "--instances", "2", "--copies", "20"),
        "40 instances x 500 copies decided, 14-qubit state"),
    "audit": Workload(
        ("fourier-audit", "--n", "4", "--partitions", "200"),
        ("fourier-audit", "--n", "4", "--partitions", "10"),
        "200 random partitions + 6561 subcube and 1000 random-indicator "
        "level-2 audits"),
}

# Layer activity the self-test expects from each workload's trace.
EXPECTED_CALLS = {
    "moments": ("forrelation_dist.gaussian_moment",
                "forrelation_dist.standard_normal_rows", "boolean_fourier.fwht"),
    "protocol_n64": ("protocol.run_quantum_protocol", "quantum_sim.apply_gate",
                     "rng.substream"),
    "audit": ("protocol.l2_audit", "protocol.random_protocol_partition",
              "boolean_fourier.fwht"),
}
SEPARATELY_BOUND = ("forrlab.cli.gaussian_moment", "forrlab.forrelation_dist.fwht",
                    "forrlab.protocol.apply_gate", "forrlab.quantum_sim.apply_gate")


@dataclass
class Rep:
    """One child process, with the speed index measured just before it."""

    exit_code: int
    elapsed_s: float  # reference process included
    peak_rss_mib: float
    speed_s: float | None = None
    setup_s: float | None = None
    wall_s: float | None = None
    module: str | None = None
    numpy: str | None = None
    output: bytes | None = None
    stdout: str = ""
    trace: dict | None = None
    failures: tuple[str, ...] = ()


class Runner:
    """Runs child processes for one workload and seed in a scratch dir."""

    def __init__(self, argv: list[str], seed: int, workdir: Path, start: float):
        self.argv = argv
        self.seed = seed
        self.workdir = workdir
        self.start = start
        self.count = 0

    def spawn(self, args: list[str], stem: str) -> tuple[int, float, float, object]:
        """Run ``python3 args`` with src/ importable; return exit code,
        spawn time, end time and rusage."""
        env = dict(os.environ)
        # Import from cached bytecode, as an installed package does, and keep
        # the cache inside src/ of this checkout.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env.pop("PYTHONPYCACHEPREFIX", None)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(self.workdir / f"{stem}.stdout"), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(self.workdir / f"{stem}.stderr"), flags, 0o644),
        ]
        spawned = time.monotonic()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], env,
                             file_actions=actions)
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() - self.start > RUN_LIMIT_S:
                os.kill(pid, 9)
                _, status, usage = os.wait4(pid, 0)
                break
            time.sleep(0.005)
        return os.waitstatus_to_exitcode(status), spawned, time.monotonic(), usage

    def speed_index(self, stem: str) -> float | None:
        """Geometric mean of the reference process's start-up time and
        probe times; None if it failed."""
        result = self.workdir / f"{stem}.json"
        code, spawned, _, _ = self.spawn([str(BENCH / "reference.py"), str(result)], stem)
        if code != 0 or not result.exists():
            return None
        info = json.loads(result.read_text())
        times = [info["imported_at"] - spawned, *info["probes"]]
        return math.exp(statistics.fmean(math.log(t) for t in times))

    def run(self, workload: bool = True, traced: bool = False) -> Rep:
        """One repetition; without ``workload`` the child only imports
        forrlab.cli, which is a set-up sample."""
        self.count += 1
        stem = f"rep{self.count}"
        began = time.monotonic()
        speed = self.speed_index(f"ref{self.count}")
        out = self.workdir / f"{stem}.out"
        result = self.workdir / f"{stem}.json"
        spans = self.workdir / f"{stem}.spans.json"
        args = [str(BENCH / "child.py"), str(result), str(spans) if traced else "-"]
        if workload:
            args += [*self.argv, "--seed", str(self.seed), "--out", str(out)]
        code, spawned, ended, usage = self.spawn(args, stem)
        rep = Rep(exit_code=code, elapsed_s=ended - began, speed_s=speed,
                  peak_rss_mib=usage.ru_maxrss / 1024.0,
                  stdout=(self.workdir / f"{stem}.stdout").read_text())
        if result.exists():
            info = json.loads(result.read_text())
            rep.setup_s = info["imported_at"] - spawned
            rep.wall_s = info.get("wall_s")
            rep.module = info["module"]
            rep.numpy = info["numpy"]
        if out.exists():
            rep.output = out.read_bytes()
        if traced and spans.exists():
            rep.trace = json.loads(spans.read_text())
        return rep


def gate(rep: Rep, reference: bytes | None, protocol: bool,
         workload: bool = True) -> tuple[str, ...]:
    """Reasons this repetition failed its correctness checks."""
    reasons = []
    if rep.exit_code != 0:
        reasons.append(f"exit code {rep.exit_code}")
    if rep.speed_s is None:
        reasons.append("reference process failed")
    if rep.setup_s is None:
        reasons.append("child wrote no result")
    if not workload:
        return tuple(reasons)
    if rep.wall_s is None:
        reasons.append("child wrote no timing result")
    if rep.output is None:
        reasons.append("no output file")
    else:
        rows = csv.DictReader(io.StringIO(rep.output.decode()))
        if any(row.get("passed") == "False" for row in rows):
            reasons.append("a CSV row has passed=False")
        if reference is not None and rep.output != reference:
            reasons.append("output differs from the first repetition")
    if protocol:
        summary = next((json.loads(line) for line in rep.stdout.splitlines()
                        if line.startswith("{")), {})
        rate = summary.get("success_rate", -1.0)
        if rate < SUCCESS_FLOOR:
            reasons.append(f"success_rate {rate} < {SUCCESS_FLOOR}")
    if rep.trace is not None and rep.trace["unrestored"]:
        reasons.append(f"tracer left {rep.trace['unrestored']} rebound")
    return tuple(reasons)


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for no values."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def layer_metrics(trace: dict) -> dict[str, tuple[float, str]]:
    """Per-layer calls, self and total time, and counters from one trace.

    A span's self time is its duration minus the time its child spans cover;
    spans nest strictly, so that is the sum of the direct children."""
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    total_s: defaultdict = defaultdict(float)
    runs = []
    for i, (name, start, end, _) in enumerate(spans):
        calls[name] += 1
        total_s[name] += end - start
        self_s[name] += end - start - covered[i]
        if name == "protocol.run_quantum_protocol":
            runs.append(end - start)
    metrics = {}
    for name in SPAN_NAMES:
        if name == "cli.main":
            continue
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
        metrics[f"{name}.total_s"] = (total_s[name], "s")
    for name, unit in COUNTER_UNITS.items():
        metrics[name] = (trace["counters"].get(name, 0), unit)
    runs.sort()
    metrics["protocol.run_quantum_protocol.p50_ms"] = (1e3 * quantile(runs, 0.50), "ms")
    metrics["protocol.run_quantum_protocol.p98_ms"] = (1e3 * quantile(runs, 0.98), "ms")
    metrics["cli.self_s"] = (self_s["cli.main"], "s")
    return metrics


def measure(name: str, seed: int, seconds: float, traced: bool,
            tiny: bool = False) -> dict:
    """Run one workload; return counts, failures and metrics."""
    workload = WORKLOADS[name]
    argv = list(workload.tiny if tiny else workload.args)
    start = time.monotonic()
    out_dir = BENCH / "out"
    workdir = out_dir / f"{name}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(argv, seed, workdir, start)
        # The first import writes the bytecode cache and is not a sample.
        first = runner.run(workload=False)
        if first.exit_code != 0 or not (first.module or "").startswith(str(SRC)):
            raise SystemExit(f"error: forrlab.cli does not import from {SRC}")
        setups = [runner.run(workload=False) for _ in range(SETUP_SAMPLES)]
        for rep in setups:
            rep.failures = gate(rep, None, False, workload=False)
        protocol = argv[0] == "run-protocol"
        reps: list[Rep] = []
        while True:
            rep = runner.run()
            rep.failures = gate(rep, reps[0].output if reps else None, protocol)
            reps.append(rep)
            typical = statistics.median(r.elapsed_s for r in reps)
            if len(reps) >= MIN_REPS and time.monotonic() + typical > start + seconds:
                break
        traced_rep = None
        if traced:
            traced_rep = runner.run(traced=True)
            traced_rep.failures = gate(traced_rep, reps[0].output, protocol)
            if traced_rep.trace is not None:
                spans_path = workdir / f"rep{runner.count}.spans.json"
                spans_path.replace(out_dir / f"{name}-seed{seed}.spans.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def scaled(rep: Rep, value: float) -> float:
        return value * REFERENCE_S / rep.speed_s

    timed = [r for r in reps if r.wall_s is not None and r.speed_s is not None]
    set_up = [r for r in setups + timed if r.setup_s is not None and r.speed_s is not None]
    e2e, raw = {}, {}
    if timed:
        e2e = {
            "setup_s": (statistics.median(scaled(r, r.setup_s) for r in set_up), "s"),
            "wall_s": (statistics.median(scaled(r, r.wall_s) for r in timed), "s"),
            "peak_rss_mib": (statistics.median(r.peak_rss_mib for r in timed), "MiB"),
        }
        raw = {"setup_s": statistics.median(r.setup_s for r in set_up),
               **{key: statistics.median(getattr(r, key) for r in timed)
                  for key in ("wall_s", "speed_s")}}
    layers = {}
    if (traced_rep is not None and traced_rep.trace is not None and timed
            and traced_rep.speed_s is not None):
        layers = layer_metrics(traced_rep.trace)
        layers["cli.output_bytes"] = (len(traced_rep.output or b""), "B")
        layers["trace.overhead_s"] = (
            scaled(traced_rep, traced_rep.wall_s) - e2e["wall_s"][0], "s")
    attempted = setups + reps + ([traced_rep] if traced_rep else [])
    return {
        "workload": name, "seed": seed, "work": workload.work,
        "reps": len(reps), "setup_samples": len(set_up), "unscaled_medians": raw,
        "numpy": next((r.numpy for r in attempted if r.numpy), None),
        "attempted": len(attempted),
        "failures": [f"rep {i + 1}: {'; '.join(r.failures)}"
                     for i, r in enumerate(attempted) if r.failures],
        "end_to_end": e2e, "per_layer": layers,
        "trace": traced_rep.trace if traced_rep else None,
    }


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment() -> dict:
    """Machine, interpreter and source facts recorded with every result."""
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level and kind:
            suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
            caches[f"L{level}{suffix}"] = _read(index / "size")
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model, "caches": caches,
        "python": platform.python_version(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": commit,
        "src_loc": sum(len(p.read_text().splitlines())
                       for p in sorted((SRC / "forrlab").glob("*.py"))),
    }


def _as_json(metrics: dict[str, tuple[float, str]]) -> dict:
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def report(results: list[dict], metrics: dict[str, tuple[float, str]]) -> int:
    """Print the readable table, the details line and the result line."""
    for res in results:
        print(f"# {res['workload']} seed={res['seed']}: {res['work']}; "
              f"{res['reps']} untraced repetitions")
        for failure in res["failures"]:
            print(f"# FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<52} {value:>16.6g} {unit}")
    env = environment()
    env["numpy"] = next((r["numpy"] for r in results if r["numpy"]), None)
    details = [{k: v for k, v in r.items()
                if k not in ("end_to_end", "per_layer", "trace")} for r in results]
    print(json.dumps({"environment": env, "runs": details}))
    failed = sum(len(r["failures"]) for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": _as_json(metrics)}))
    return 0 if failed == 0 else 1


def self_test() -> int:
    """Tiny sizes: every metric in BENCHMARK.json is emitted with its unit,
    traced output bytes equal untraced ones, each workload's layers are
    seen, and the tracer restores every original function."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    sys.path.insert(0, str(SRC))
    import forrlab.cli  # noqa: F401  (loads every package module)
    modules = [m for key, m in sys.modules.items()
               if key == "forrlab" or key.startswith("forrlab.")]
    before = [(m, k, v) for m in modules for k, v in vars(m).items()]
    tracer = Tracer()
    tracer.install()
    changed = sum(vars(m)[k] is not v for m, k, v in before)
    unrestored = tracer.uninstall()
    if not changed or unrestored or any(vars(m)[k] is not v for m, k, v in before):
        problems.append(f"in-process install/uninstall: {changed} rebound, "
                        f"{unrestored} not restored")

    for name in WORKLOADS:
        res = measure(name, seed=1, seconds=0, traced=True, tiny=True)
        problems += [f"{name}: {f}" for f in res["failures"]]
        for key in ("end_to_end", "per_layer"):
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {m: unit for m, (_, unit) in res[key].items()}
            if got != want:
                problems.append(f"{name}: {key} names/units differ: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, wrong unit "
                                f"{sorted(m for m in want if m in got and got[m] != want[m])}")
        if res["trace"] is None:
            problems.append(f"{name}: no trace written")
            continue
        missing = [m for m in SEPARATELY_BOUND if m not in res["trace"]["rebound"]]
        if missing:
            problems.append(f"{name}: not rebound: {missing}")
        idle = [s for s in EXPECTED_CALLS[name]
                if not res["per_layer"].get(f"{s}.calls", (0,))[0]]
        if idle:
            problems.append(f"{name}: no spans for {idle}")
        print(f"# self-test {name}: {res['attempted']} runs, "
              f"{len(res['trace']['spans'])} spans")
    for problem in problems:
        print(f"# SELF-TEST FAILED {problem}")
    print("self-test ok" if not problems else "self-test failed")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "forrlab" / "cli.py").is_file():
        print(f"error: {SRC / 'forrlab' / 'cli.py'} not found; run from a "
              f"forrlab checkout", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    if args.workload != "all":
        res = measure(args.workload, args.seed, seconds, bool(args.trace))
        return report([res], res["per_layer"] if args.trace else res["end_to_end"])
    results, metrics = [], {}
    for name in WORKLOADS:
        res = measure(name, args.seed, seconds, traced=True)
        results.append(res)
        for key, value in {**res["end_to_end"], **res["per_layer"]}.items():
            metrics[f"{name}.{key}"] = value
    return report(results, metrics)


if __name__ == "__main__":
    sys.exit(main())
