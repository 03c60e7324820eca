"""pwcheck benchmark: real CLI calls, checked against goldens, timed end to end.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a pwcheck checkout; the package is imported
from `src/`. Load is a closed loop with one client: one case subprocess
at a time, each the command a user types (`python -m pwcheck.cli ...`),
so interpreter start-up is part of every case and nothing survives from
one case to the next. The seed picks the case order and the twisting
degree d = 1 + n*s (s < D_STEPS) of every moduli case; d changes
neither the mathematics nor the cost, but a cache keyed on the exact
argv cannot make a repeated case free.

Every process of a run shares one CPU, and every timed command is
scaled to machine speed: its wall and CPU times are multiplied by
REF_NOMINAL_S over the mean of the reference loop's times on that CPU
just before and just after it (see reference_s). The speed of a shared
host drifts by tens of percent within seconds; the scaled times drift
far less (README.md, Noise).

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics of a traced run (see tracer.py). The last line of stdout is one
JSON object; the lines before it say what was run. README.md beside
this file lists every metric and workload.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from tracer import STATS_MARKER

HERE = Path(__file__).resolve().parent
TRACER = HERE / "tracer.py"
GOLDEN_PATH = HERE / "golden.json"

D_STEPS = 4
SETUP_REPS = 15
CASE_TIMEOUT_S = 60.0
# No pass starts after this many seconds, so a run ends well within 180 s.
RUN_DEADLINE_S = 100.0
SELF_CHECK_CASE = ("verify", "--n", "5", "--g", "2", "--format", "text", "--d", "1")
SELF_CHECK_NAMES = ("epoly.closed_e", "epoly.variant_bracket", "laurent.mul")
# Typical time of reference_s() on a 2-vCPU Linux VM with Python 3.11;
# scaled times are seconds on a machine where the loop takes this long.
REF_NOMINAL_S = 0.017
REF_REPS = 3


def reference_s() -> float:
    """Median time of REF_REPS runs of a fixed loop of the kind of work
    pwcheck does (dict updates, Fraction and int arithmetic). It uses only
    the standard library, so no change to pwcheck can move it."""
    times = []
    for _ in range(REF_REPS):
        start = time.perf_counter()
        table: dict = {}
        total = Fraction(1)
        for i in range(3000):
            table[i % 97] = table.get(i % 97, 0) + i * i
            total += Fraction(i, i + 7)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def pin_to_one_cpu() -> None:
    """Run this process, its threads and children on one CPU, so the
    reference loop is timed on the CPU the commands run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _moduli(verb: str, fmt: str, grid) -> tuple:
    return tuple(((verb, "--n", str(n), "--g", str(g), "--format", fmt), n)
                 for n, g in grid)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (argv without --d, rank n or None when the verb takes no degree)
    cases: tuple
    # Passes every run makes at least; with the case count this fixes the
    # tail percentile, so runs of any length report the same percentile.
    min_passes: int

    @property
    def tail_pct(self) -> int:
        """Highest percentile with at least ten samples beyond it at the
        minimum sample count; more passes only add samples beyond it."""
        n = self.min_passes * len(self.cases)
        return max(0, 100 * (n - 10) // n)


_TABLE_GRID = ((11, 4), (13, 3), (13, 4), (17, 3))

WORKLOADS = {w.name: w for w in (
    Workload(
        "verify-grid",
        "verify on small primes and (13,4): the only workload running the "
        "mirror (BiLaurentPoly), and mostly start-up on its small cases",
        _moduli("verify", "text",
                [(n, g) for n in (2, 3, 5, 7) for g in (2, 3, 4)]
                + [(11, 2), (11, 3), (13, 4)]),
        min_passes=3),
    Workload(
        "tables-large",
        "pw, betti and epoly at large (n,g): criterion finders on big sparse "
        "tables and univariate kernel work, never the mirror",
        _moduli("pw", "text", _TABLE_GRID)
        + _moduli("betti", "json", _TABLE_GRID)
        + _moduli("epoly", "json", _TABLE_GRID),
        min_passes=6),
    Workload(
        "ksearch-boxes",
        "ksearch enumeration: finders on 65k tiny dense tables, no "
        "polynomial work, the opposite regime of tables-large",
        ((("ksearch", "--format", "text"), None),
         (("ksearch", "--i-max", "3", "--j-max", "3", "--criterion", "first",
           "--format", "text"), None),
         (("ksearch", "--i-max", "3", "--j-max", "3", "--criterion", "second",
           "--format", "text"), None)),
        min_passes=6),
)}


def case_argv(case, s: int) -> tuple:
    argv, n = case
    return argv if n is None else argv + ("--d", str(1 + n * s))


def all_argvs(workload: Workload) -> list:
    """Every argv the workload can run, over all seeds."""
    return sorted({case_argv(case, s) for case in workload.cases
                   for s in range(D_STEPS)})


def make_plan(workload: Workload, rng: random.Random) -> list:
    """One pass: every case once, in seeded order, with seeded d."""
    plan = [case_argv(case, rng.randrange(D_STEPS)) for case in workload.cases]
    rng.shuffle(plan)
    return plan


def golden_key(argv) -> str:
    return " ".join(argv)


@dataclass
class CaseResult:
    argv: tuple
    wall_s: float
    cpu_s: float
    maxrss_kib: int
    exit_code: int
    stdout: bytes
    stderr: bytes
    timed_out: bool
    # REF_NOMINAL_S / reference time around the command
    scale: float = 1.0
    error: str | None = None  # set by check()

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s * self.scale

    @property
    def scaled_cpu_s(self) -> float:
        return self.cpu_s * self.scale

    def stats(self) -> dict:
        """Tracer stats from the last stderr line of a traced case; empty,
        and the case failed, when the tracer wrote none."""
        lines = self.stderr.decode("utf-8", "replace").splitlines()
        if not lines or not lines[-1].startswith(STATS_MARKER):
            self.error = self.error or "no tracer stats"
            return {}
        return json.loads(lines[-1][len(STATS_MARKER):])


class Runner:
    """Runs case subprocesses one at a time and checks them against goldens."""

    def __init__(self, root: Path, golden: dict, deadline: float):
        self.root = root
        self.golden = golden
        self.deadline = deadline
        # Children see no inherited PYTHON* setting, so bytecode is cached
        # under src/ as for an installed package, whatever the caller's
        # environment says.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.results: list[CaseResult] = []
        self.last_ref_s: float | None = None

    def spawn(self, cmd: list, timeout: float) -> CaseResult:
        """Run one command to its end, timed and scaled by the reference
        loop timed just before and just after it."""
        before = self.last_ref_s or reference_s()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out: list[bytes] = []
        err: list[bytes] = []
        readers = [threading.Thread(target=lambda f, buf: buf.append(f.read()),
                                    args=(stream, buf))
                   for stream, buf in ((proc.stdout, out), (proc.stderr, err))]
        for reader in readers:
            reader.start()
        timed_out = threading.Event()

        def kill() -> None:
            timed_out.set()
            with contextlib.suppress(ProcessLookupError):
                os.kill(proc.pid, signal.SIGKILL)
        timer = threading.Timer(max(timeout, 1.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        for reader in readers:
            reader.join()
        proc.stdout.close()
        proc.stderr.close()
        self.last_ref_s = reference_s()
        return CaseResult(tuple(cmd), wall, usage.ru_utime + usage.ru_stime,
                          usage.ru_maxrss, proc.returncode, out[0], err[0],
                          timed_out.is_set(),
                          REF_NOMINAL_S * 2 / (before + self.last_ref_s))

    def run_case(self, argv, mode: str | None = None) -> CaseResult:
        """One CLI call: plain, or under the tracer in `mode`."""
        if mode is None:
            cmd = [sys.executable, "-m", "pwcheck.cli", *argv]
        else:
            cmd = [sys.executable, str(TRACER), mode, "--", *argv]
        remaining = self.deadline + CASE_TIMEOUT_S - time.perf_counter()
        result = self.spawn(cmd, min(CASE_TIMEOUT_S, remaining))
        result.argv = tuple(argv)
        self.check(result)
        self.results.append(result)
        return result

    def check(self, result: CaseResult) -> None:
        key = golden_key(result.argv)
        want = self.golden.get(key)
        if result.timed_out:
            result.error = "timeout"
        elif want is None:
            result.error = "no golden"
        elif result.exit_code != want["exit"]:
            result.error = f"exit {result.exit_code}, golden {want['exit']}"
        elif hashlib.sha256(result.stdout).hexdigest() != want["sha256"]:
            result.error = "stdout digest differs from golden"
        if result.error:
            tail = result.stderr.decode("utf-8", "replace").strip()[-300:]
            print(f"FAILED {key}: {result.error} {tail}")

    def run_pass(self, plan, mode: str | None = None) -> tuple[float, list]:
        """Run every case of `plan`; the pass's scaled wall time and results."""
        results = [self.run_case(argv, mode) for argv in plan]
        return sum(r.scaled_wall_s for r in results), results

    def more(self, done: int, minimum: int, seconds: float, start: float) -> bool:
        """Whether to start another pass: always up to `minimum`, then
        while the mean pass so far still fits in `seconds`."""
        now = time.perf_counter()
        if now >= self.deadline:
            return False
        if done < minimum:
            return True
        return now - start + (now - start) / done <= seconds

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r.error)


def check_checkout(root: Path) -> str | None:
    """Why the benchmark cannot run in `root`, or None."""
    if not (root / "src" / "pwcheck" / "cli.py").is_file():
        return f"no pwcheck source at {root / 'src' / 'pwcheck'}"
    return None


def measure_setup(runner: Runner) -> float:
    """Median scaled wall time of a fresh interpreter running `import pwcheck`."""
    code = "import pwcheck; print(pwcheck.__file__)"
    first = runner.spawn([sys.executable, "-c", code], CASE_TIMEOUT_S)
    found = first.stdout.decode().strip()
    want = runner.root / "src" / "pwcheck" / "__init__.py"
    if first.exit_code != 0 or Path(found).resolve() != want.resolve():
        raise RuntimeError(f"import pwcheck gave {found!r}, not {want}")
    walls = [runner.spawn([sys.executable, "-c", "import pwcheck"], CASE_TIMEOUT_S)
             for _ in range(SETUP_REPS)]
    if any(w.exit_code for w in walls):
        raise RuntimeError("import pwcheck failed")
    return statistics.median(w.scaled_wall_s for w in walls)


def percentile(values, pct: int) -> float:
    """Harrell-Davis estimate of a percentile: a mean of all order
    statistics, weighted by the Beta(p(n+1), (1-p)(n+1)) mass over
    ((i-1)/n, i/n]. The cases of a pass differ in size, so one order
    statistic jumps from case to case when noise reorders neighbouring
    samples; the weighted mean moves smoothly with them."""
    ordered = sorted(values)
    if pct <= 0 or pct >= 100:
        return ordered[0] if pct <= 0 else ordered[-1]
    n = len(ordered)
    a, b = pct / 100 * (n + 1), (1 - pct / 100) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64  # midpoint rule per order statistic

    def density(x: float) -> float:
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
    weights = [sum(density((i + (k + 0.5) / steps) / n) for k in range(steps))
               for i in range(n)]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def describe_plan(index: int, plan) -> str:
    parts = []
    for argv in plan:
        if "--n" in argv:
            d = argv[argv.index("--d") + 1]
            parts.append(f"{argv[0]}({argv[argv.index('--n') + 1]},"
                         f"{argv[argv.index('--g') + 1]})d={d}")
        else:
            parts.append(" ".join(argv[:-2]))
    return f"pass {index}: " + ", ".join(parts)


def end_to_end(workload: Workload, runner: Runner, rng: random.Random,
               seconds: float) -> dict:
    setup_s = measure_setup(runner)
    passes = []
    start = time.perf_counter()
    while runner.more(len(passes), workload.min_passes, seconds, start):
        plan = make_plan(workload, rng)
        print(describe_plan(len(passes) + 1, plan))
        passes.append(runner.run_pass(plan))
    cases = [r for _, results in passes for r in results]
    latencies = [r.scaled_wall_s * 1000 for r in cases]
    tail = percentile(latencies, workload.tail_pct)
    print(f"case_tail_ms = p{workload.tail_pct} of {len(latencies)} case "
          f"samples; {len(passes)} passes")
    print(f"scale = {REF_NOMINAL_S * 1000:g} ms / reference: median "
          f"{statistics.median(r.scale for r in cases):.4g}, range "
          f"{min(r.scale for r in cases):.4g}-{max(r.scale for r in cases):.4g}; "
          f"unscaled pass wall median "
          f"{statistics.median(sum(r.wall_s for r in res) for _, res in passes):.4g} s")
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(wall for wall, _ in passes), "s"),
        "cpu_s": (statistics.median(sum(r.scaled_cpu_s for r in results)
                                    for _, results in passes), "s"),
        "case_p50_ms": (percentile(latencies, 50), "ms"),
        "case_tail_ms": (tail, "ms"),
        "peak_rss_mib": (max(r.maxrss_kib for r in cases) / 1024, "MiB"),
    }


# Per-layer metrics by source: total or self time from the span pass,
# calls and work counts from the count pass.
SPAN_TOTAL = ("epoly.variant_bracket", "epoly.closed_e", "epoly.variant_betti",
              "epoly.mirror_difference", "hookchar.evar_from_types",
              "hookchar.evar_type_route", "hookchar.type_contribution",
              "hitchin.verify_pw", "hitchin.perverse_table", "hitchin.weight_table")
SPAN_SELF = ("laurent.mul", "laurent.divide_exact", "laurent.add", "laurent.bimul",
             "laurent.diagonal", "filtration.check_first_criterion",
             "filtration.check_second_criterion",
             "filtration.falsification_search", "cli.main")
COUNT_CALLS = ("laurent.mul", "laurent.pow", "laurent.divide_exact", "laurent.bimul",
               "laurent.bipow", "epoly.variant_bracket", "epoly.closed_e",
               "epoly.variant_betti", "epoly.mirror_difference",
               "hookchar.evar_from_types", "hitchin.verify_pw",
               "hitchin.perverse_table", "hitchin.weight_table",
               "filtration.table_get", "filtration.is_k_sequence")
COUNT_WORK = ("laurent.mul.coeff_ops", "laurent.bimul.coeff_ops",
              "epoly.mirror_difference.terms", "filtration.search.tables")


def _sum_stats(stats: list, pick) -> float:
    return sum(pick(s) for s in stats)


def count_mismatches(counted: dict, profiled: dict) -> list:
    """Names whose patched call count differs from the sys.setprofile one,
    or that the self-check case never called."""
    differ = [n for n in sorted(set(counted) | set(profiled))
              if counted.get(n, 0) != profiled.get(n, 0)]
    return differ + [n for n in SELF_CHECK_NAMES if not counted.get(n)]


def self_check(runner: Runner) -> bool:
    """Traced call counts must equal sys.setprofile counts on one verify."""
    counted = runner.run_case(SELF_CHECK_CASE, "count").stats().get("calls", {})
    profiled = runner.run_case(SELF_CHECK_CASE, "profile").stats().get("calls", {})
    bad = count_mismatches(counted, profiled)
    ok = not bad
    print(f"tracer self-check on {golden_key(SELF_CHECK_CASE)}: "
          + ("pass" if ok else f"FAIL on {', '.join(bad)}"))
    print("  " + ", ".join(f"{n}={counted.get(n, 0)}" for n in SELF_CHECK_NAMES))
    return ok


def per_layer(workload: Workload, runner: Runner, rng: random.Random,
              seconds: float) -> tuple[dict, bool]:
    ok = self_check(runner)
    start = time.perf_counter()
    plan = make_plan(workload, rng)
    print(describe_plan(0, plan) + " [count]")
    counted = [r.stats() for r in runner.run_pass(plan, "count")[1]]
    pairs = []
    while runner.more(len(pairs), 1, seconds, start):
        plan = make_plan(workload, rng)
        print(describe_plan(len(pairs) + 1, plan) + " [plain, span]")
        plain = runner.run_pass(plan)
        span_wall, span = runner.run_pass(plan, "span")
        pairs.append((plain, (span_wall, [r.stats() for r in span])))

    metrics = {}
    for name in COUNT_CALLS:
        metrics[name + ".calls"] = (
            _sum_stats(counted, lambda s: s.get("calls", {}).get(name, 0)), "count")
    for key in COUNT_WORK:
        metrics[key] = (_sum_stats(counted, lambda s: s.get("work", {}).get(key, 0)), "count")
    k_seq, cases = (
        _sum_stats(counted, lambda s: s.get("work", {}).get(key, 0))
        for key in ("filtration.search.k_seq_calls", "filtration.search.cases"))
    metrics["filtration.search.survivor_ratio"] = (k_seq / cases if cases else 0.0, "ratio")

    def span_median(name: str, field: str) -> float:
        return 1000 * statistics.median(
            _sum_stats(span, lambda s: s.get(name, {}).get(field, 0))
            for _, (_, span) in pairs)
    for name in SPAN_SELF:
        metrics[name + ".self_ms"] = (span_median(name, "self_s"), "ms")
    for name in SPAN_TOTAL:
        metrics[name + ".total_ms"] = (span_median(name, "total_s"), "ms")
    metrics["cli.stdout_bytes"] = (statistics.median(
        sum(len(r.stdout) for r in plain) for (_, plain), _ in pairs), "bytes")
    metrics["trace.overhead_frac"] = (statistics.median(
        span_wall / plain_wall - 1 for (plain_wall, _), (span_wall, _) in pairs), "ratio")
    return metrics, ok


def run_workload(workload: Workload, root: Path, golden: dict, seed: int,
                 seconds: float, trace: bool) -> dict:
    runner = Runner(root, golden, time.perf_counter() + RUN_DEADLINE_S)
    rng = random.Random(f"{workload.name}:{seed}")
    print(f"workload {workload.name} seed {seed} trace {int(trace)}: {workload.why}")
    correct = True
    if trace:
        metrics, correct = per_layer(workload, runner, rng, seconds)
    else:
        metrics = end_to_end(workload, runner, rng, seconds)
    attempted, failed = len(runner.results), runner.failed
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted:g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    return {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    problem = check_checkout(root)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    golden = json.loads(GOLDEN_PATH.read_text())
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(WORKLOADS[name], root, golden, args.seed,
                              args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
