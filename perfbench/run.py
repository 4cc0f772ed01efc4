"""nilmult benchmark: end-to-end CLI timings and a per-layer trace.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  ``--trace 0`` runs every command of
the workload as its own ``python -m nilmult`` process, so no cache
carries over between samples, and reports the end-to-end metrics.
``--trace 1`` runs one pass inside this process, untraced and then with
every layer wrapped (see tracer.py), and reports the per-layer metrics.
``--workload all`` does either for every workload, samples taken
round-robin, and prints every metric prefixed by its workload.

Every command's output is checked; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Everything the benchmark writes goes under
``.bench_build/perfbench`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"

sys.path.insert(0, str(HERE))
from probe import probe  # noqa: E402
from workloads import NAMES, Command, commands, load_expected  # noqa: E402

SETUP_STARTS = 8     # cold starts before the first pass, after one warm-up
MIN_PASSES = 2       # a run's median has at least two samples
DEADLINE_S = 170     # a process still running this long after start is killed
STARTED = perf_counter()

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "lie_core.series_profile.calls": "count",
    "lie_core.series_profile.s": "s",
    "lie_core.series_profile.self_s": "s",
    "exactla.rref.calls": "count",
    "exactla.rref.s": "s",
    "exactla.rref.cells": "count",
    "homology.d3_matrix.s": "s",
    "homology.d3_matrix.cells": "count",
    "homology.d3_matrix.nnz": "count",
    "homology.d2_matrix.s": "s",
    "homology.rank_d3": "count",
    "lie_core.construct.calls": "count",
    "lie_core.construct.s": "s",
    "lie_core.quotient_algebra.calls": "count",
    "lie_core.quotient_algebra.self_s": "s",
    "analysis.ker_lambda_dims.s": "s",
    "analysis.psi_witnesses.s": "s",
    "analysis.psi_witnesses.self_s": "s",
    "analysis.bound_report.s": "s",
    "homology.multiplier_dim.calls": "count",
    "homology.multiplier_dim.hit_ratio": "ratio",
    "catalog.build.calls": "count",
    "catalog.build.s": "s",
    "catalog.parse_file.s": "s",
    "free_lie.free_nilpotent.s": "s",
    "free_lie.verify_lemma31.s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Tally:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, cmd: Command, code: int, out: str, err: str) -> None:
        self.attempted += 1
        problem = cmd.check(code, out, err)
        if problem:
            self.failures.append(f"{cmd.text}: {problem}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# -- processes ---------------------------------------------------------------

def _timeout(signum, frame):
    raise TimeoutError


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def spawn(argv: list[str], env: dict) -> tuple[int, str, str, float, float]:
    """Run one process; exit code, stdout, stderr, wall seconds, peak RSS MB.

    The peak RSS is this process's own (with its waited-for children),
    from os.wait4, not the running maximum over all children.  A process
    still running DEADLINE_S after the benchmark started is killed, so a
    run ends in time even on a much slower program; its check then fails.
    """
    out_path, err_path = WORKDIR / "stdout", WORKDIR / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
        signal.signal(signal.SIGALRM, _timeout)
        signal.setitimer(signal.ITIMER_REAL,
                         max(1.0, STARTED + DEADLINE_S - perf_counter()))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no process behind
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return (code, out_path.read_text(), err_path.read_text(), wall,
            usage.ru_maxrss / 1024)


def nilmult_env() -> dict:
    """This environment with the checkout's sources first on PYTHONPATH."""
    rest = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC)] + rest))


def nilmult_argv(cmd: Command) -> list[str]:
    return [sys.executable, "-m", "nilmult", *cmd.argv]


HELP = Command(("--help",), lambda code, out, err: None if code == 0
               and out.startswith("usage: nilmult") else f"exit code {code}")


def cold_start(env: dict, tally: Tally) -> float:
    """Seconds for a cold ``nilmult --help``: interpreter start, import, parser."""
    code, out, err, wall, _ = spawn(nilmult_argv(HELP), env)
    tally.check(HELP, code, out, err)
    return wall


# -- end-to-end runs ---------------------------------------------------------

@dataclass
class Samples:
    wall: list[float] = field(default_factory=list)
    rss: list[float] = field(default_factory=list)


def measure(names, seed: int, seconds: int, env: dict, expected: dict,
            tally: Tally) -> tuple[dict[str, Samples], list[float], list[float]]:
    """Passes of every workload round-robin until ``seconds`` have passed
    and at least MIN_PASSES are done.

    Returns the pass samples, the probe times and the cold-start times.
    Set-up runs SETUP_STARTS cold starts, after one that warms the
    bytecode cache; one more follows every command, and the probe every
    pass, so that both are spread over the same stretch of time as the
    samples.  ``dense`` draws fresh inputs for every pass.
    """
    samples = {name: Samples() for name in names}
    cold_start(env, tally)
    starts = [cold_start(env, tally) for _ in range(SETUP_STARTS)]
    probes = [probe()]
    begin = perf_counter()
    passes = 0
    while passes < MIN_PASSES or perf_counter() - begin < seconds:
        for name in names:
            wall = rss = 0.0
            for cmd in commands(name, seed, WORKDIR, expected, passes):
                code, out, err, took, peak = spawn(nilmult_argv(cmd), env)
                tally.check(cmd, code, out, err)
                wall += took
                rss = max(rss, peak)
                starts.append(cold_start(env, tally))
            probes.append(probe())
            samples[name].wall.append(wall)
            samples[name].rss.append(rss)
        passes += 1
    return samples, probes, starts


# -- traced runs -------------------------------------------------------------

def run_in_process(cmd: Command, caches: list, tally: Tally) -> tuple[float, str]:
    """One command inside this process, starting with empty caches."""
    from nilmult import cli

    for cache in caches:
        cache.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(cmd.argv))
        except SystemExit as exc:
            code = exc.code
    wall = perf_counter() - start
    tally.check(cmd, code, out.getvalue(), err.getvalue())
    return wall, out.getvalue()


def traced(name: str, seed: int, expected: dict, tally: Tally) -> dict[str, float]:
    """Per-layer metrics of one pass (the first pass's inputs).

    Each command runs untraced and then traced, back to back; the traced
    stdout must equal the untraced one, and the difference of their wall
    times is trace.overhead_s.
    """
    import nilmult
    from tracer import Tracer

    modules = [m for key, m in sys.modules.items() if key.startswith("nilmult")]
    caches = list({id(v): v for m in modules for v in vars(m).values()
                   if hasattr(v, "cache_clear")}.values())
    multiplier_dim = nilmult.homology.multiplier_dim
    tracer = Tracer()
    hits = misses = 0
    overhead = 0.0
    for cmd in commands(name, seed, WORKDIR, expected, 0):
        plain_s, plain_out = run_in_process(cmd, caches, tally)
        tracer.install()
        try:
            traced_s, traced_out = run_in_process(cmd, caches, tally)
        finally:
            tracer.uninstall()
        info = multiplier_dim.cache_info()
        hits, misses = hits + info.hits, misses + info.misses
        overhead += traced_s - plain_s
        tally.attempted += 1
        if traced_out != plain_out:
            tally.failures.append(f"{cmd.text}: traced stdout differs from untraced")

    with open(WORKDIR / f"spans-{name}.jsonl", "w") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")
    print(f"# {name}: d3 shapes " + " ".join(f"{r}x{c}" for r, c in tracer.d3_shapes))
    stats = tracer.summary()
    values = dict(tracer.counts)
    for span_name, entry in stats.items():
        for key, value in entry.items():
            values[f"{span_name}.{key}"] = value
    values["homology.multiplier_dim.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["cli.self_s"] = stats["cli.main"]["self_s"]
    values["trace.overhead_s"] = overhead
    return {metric: values.get(metric, 0) for metric in PER_LAYER}


# -- output ------------------------------------------------------------------

def report(prefix: str, values: dict[str, list[float]]) -> dict:
    """Print each metric's median with its quartiles; return them for the JSON."""
    metrics = {}
    for metric, unit in END_TO_END.items():
        q1, median, q3 = quartiles(values[metric])
        metrics[prefix + metric] = {"value": median, "unit": unit}
        print(f"{prefix + metric:<42} {median:>16.6f} {unit:<6} "
              f"n={len(values[metric])} q1={q1:.6f} q3={q3:.6f}")
    return metrics


def report_layers(prefix: str, values: dict[str, float]) -> dict:
    metrics = {}
    for metric, unit in PER_LAYER.items():
        metrics[prefix + metric] = {"value": values[metric], "unit": unit}
        print(f"{prefix + metric:<42} {values[metric]:>16} {unit}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "nilmult" / "cli.py").is_file():
        print(f"error: no nilmult sources under {SRC}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))
    env = nilmult_env()
    names = NAMES if args.workload == "all" else (args.workload,)
    expected = load_expected()
    tally = Tally()

    print(f"# nilmult benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} "
          f"python={platform.python_version()} "
          f"nproc={len(os.sched_getaffinity(0))} cpu_count={os.cpu_count()}")
    metrics = {}
    prefix = "{}." if args.workload == "all" else ""
    if args.trace == 0 or args.workload == "all":
        samples, probes, starts = measure(names, args.seed, args.seconds, env,
                                          expected, tally)
        q1, reference, q3 = quartiles(probes)
        print(f"# probe_s median={reference:.6f} q1={q1:.6f} q3={q3:.6f} "
              f"spread={(q3 - q1) / reference:.4f} n={len(probes)}")
        for name in names:
            s = samples[name]
            print(f"# {prefix.format(name)}wall_norm "
                  f"{statistics.median(s.wall) / reference:.6g} "
                  "(median wall_s / median probe_s; not gated)")
            metrics.update(report(prefix.format(name), {
                "wall_s": s.wall, "peak_rss_mb": s.rss, "setup_s": starts}))
    if args.trace == 1:
        for name in names:
            layers = traced(name, args.seed, expected, tally)
            metrics.update(report_layers(prefix.format(name), layers))
    for failure in tally.failures:
        print(f"# FAILED {failure}")
    failed = len(tally.failures)
    print(f"# fail_ratio {failed}/{tally.attempted} = {failed / tally.attempted:.4f}")
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
