"""Benchmark runner for grasstau.

    python3 bench/run.py --workload {factor,tau,pairing,cli} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --workload all --seed N --seconds S
    python3 bench/selftest.py

It runs the library from ``src/`` of the checkout it lives in, on one
core.  Untraced (``--trace 0``), it draws from the seed a fixed pool of
distinct calls (at least 100, so ten lie beyond p90) and runs the pool in
rounds, closed loop with one client, for about S seconds (whole rounds,
at least two).  Every result is checked by its oracle outside the timed
span.  Between calls it samples a reference (``reference.py``) and scales
each call's time to the nominal host speed; a call's time is the median
of its scaled times over the rounds, and p50, p90 and calls per second
are taken over those.  ``setup_s`` is scaled the same way; the
wall-clock figures are printed beside the scaled ones.  Traced
(``--trace 1``), it runs the first sweep of
the workload twice, untraced and then traced, and reports per-layer
counts and self time (see ``tracing.py``) plus the tracing overhead.
``all`` runs every workload untraced, each in its own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give each metric with its unit and sample count, and each oracle's
verdict.

Bytecode is pinned: set-up compiles every module the workload and the CLI
children import into ``.bench_build/pycache`` (a ``PYTHONPYCACHEPREFIX``,
never ``src/``), and every timed process reads it without writing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
PYCACHE = BUILD / "pycache"

WORKLOADS = ("factor", "tau", "pairing", "cli")
MIN_ROUNDS = 2
# sweeps in the fixed pool of distinct calls a run repeats; each pool has
# at least 100 calls, so ten of them lie beyond p90
POOL_SWEEPS = {"factor": 9, "tau": 6, "pairing": 3, "cli": 7}
SETUP_REPEATS = 15
CLI_PROBES = 7


class Failure:
    """The exception an operation raised in place of a result."""

    def __init__(self, exc: Exception):
        self.exc = exc

    def __eq__(self, other):
        return isinstance(other, Failure) and repr(other.exc) == repr(self.exc)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONSTARTUP", None)
    return env


def build(workload: str, seed: int) -> None:
    """Compile into the pinned cache everything the timed processes import,
    by running their import paths once with bytecode writing on."""
    env = child_env()
    del env["PYTHONDONTWRITEBYTECODE"]
    runs = [
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"],
        [sys.executable, "-m", "grasstau.cli", "schur", "--deg", "1"],
    ]
    for argv in runs:
        subprocess.run(argv, input='{"partition": [1]}', env=env, cwd=ROOT, check=True, text=True,
                       stdout=subprocess.DEVNULL, timeout=120)


def pin_bytecode() -> None:
    sys.pycache_prefix = str(PYCACHE)
    sys.path.insert(0, str(SRC))


def make_workload(name: str, seed: int, workdir: Path):
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(name, seed, child_env(), workdir)
    wl.warm_up()
    return wl


def make_pool(wl, name: str) -> list:
    return [call for index in range(POOL_SWEEPS[name]) for call in wl.sweep(index)]


# ----------------------------------------------------------------------
# untraced: closed loop for --seconds
# ----------------------------------------------------------------------


def timed(call):
    """Run one call; returns (seconds, result or Failure)."""
    t0 = time.perf_counter()
    try:
        result = call.run()
    except Exception as exc:  # an unexpected exception is a failed call
        result = Failure(exc)
    return time.perf_counter() - t0, result


def judged(call, result) -> bool:
    if isinstance(result, Failure):
        return False
    try:
        return bool(call.check(result))
    except Exception:  # an oracle that cannot read the result fails the call
        return False


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh processes from spawn to ready (interpreter start,
    import, input generation and warm-up calls), and the same scaled to the
    nominal host speed by the reference samples taken between them."""
    times, refs = [], []
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode:
            raise RuntimeError(f"set-up of {workload} failed")
        times.append(t1 - t0)
        refs.append(reference.KERNEL.sample())
    return times, reference.KERNEL.scale(times, refs)


def summary(samples: list[float]) -> tuple[float, float, float]:
    """p50 and p90 in ms, and calls per second, of per-call times."""
    return (statistics.median(samples) * 1000, statistics.quantiles(samples, n=10)[-1] * 1000,
            len(samples) / sum(samples))


def run_untraced(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    wl = make_workload(name, seed, workdir)
    pool = make_pool(wl, name)
    ref = reference.spawn(child_env()) if name == "cli" else reference.KERNEL
    raw = [[] for _ in pool]
    norm = [[] for _ in pool]
    all_refs = []
    verdicts = defaultdict(lambda: [0, 0])
    raised = {}
    attempted = failed = rounds = 0
    hard_stop = 3 * seconds + 60
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        # whole rounds only, so every call has the same number of samples;
        # the last round is the one that ends nearest to --seconds
        if (rounds >= MIN_ROUNDS and elapsed + elapsed / rounds / 2 >= seconds) or elapsed >= hard_stop:
            break
        times, refs = [], []
        for position, call in enumerate(pool):
            dt, result = timed(call)
            if isinstance(result, Failure):
                raised.setdefault(call.op, result.exc)
            elif name == "cli" and result[0] == -1:
                dt = wl.CAP_S  # a capped call counts at the cap latency
            ok = judged(call, result)
            verdicts[call.op][0] += 1
            verdicts[call.op][1] += not ok
            attempted += 1
            failed += not ok
            times.append(dt)
            if ref.due(position):
                refs.append(ref.sample())
        if not ref.due(len(pool) - 1):
            refs.append(ref.sample())
        for i, (t, t_norm) in enumerate(zip(times, ref.scale(times, refs))):
            raw[i].append(t)
            norm[i].append(t_norm)
        all_refs += refs
        rounds += 1
    wall = time.perf_counter() - start
    rss_kb = wl.max_rss_kb if name == "cli" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup_raw, setup_norm = measure_setup(name, seed)

    n = len(pool)
    p50, p90, rate = summary([statistics.median(v) for v in norm])
    raw_p50, raw_p90, raw_rate = summary([statistics.median(v) for v in raw])
    metrics = {
        "setup_s": (statistics.median(setup_norm), "s"),
        "call_p50_ms": (p50, "ms"),
        "call_p90_ms": (p90, "ms"),
        "calls_per_s": (rate, "1/s"),
        "ok_share": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    raws = {"setup_s": statistics.median(setup_raw), "call_p50_ms": raw_p50, "call_p90_ms": raw_p90,
            "calls_per_s": raw_rate}
    speed = ref.nominal_s / statistics.median(all_refs)
    print(f"workload {name}: seed {seed}, {n} distinct calls x {rounds} rounds = {attempted} calls "
          f"in {wall:.1f} s, closed loop, 1 client; host speed {speed:.3f} of nominal "
          f"(reference median {statistics.median(all_refs) * 1000:.3f} ms)")
    for key, (value, unit) in metrics.items():
        base = {"setup_s": f" median of {SETUP_REPEATS} set-ups", "ok_share": f" over {attempted} calls",
                "peak_rss_mb": ""}.get(key, f" over {n} calls, median of {rounds} rounds each")
        wall_clock = f" (wall clock {raws[key]:.6g} {unit})" if key in raws else ""
        print(f"  {key} = {value:.6g} {unit}{base}{wall_clock}")
    print(f"  failed_share = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for op, (count, bad) in sorted(verdicts.items()):
        why = f"; first exception: {raised[op]!r}" if op in raised else ""
        print(f"  oracle {op}: {'ok' if not bad else 'FAILED'} ({count - bad}/{count} passed{why})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


# ----------------------------------------------------------------------
# traced: one sweep, untraced then traced
# ----------------------------------------------------------------------


def cli_probes(env: dict) -> dict:
    """Median cost of a bare interpreter, of importing grasstau.cli, and of
    the spawn itself (time for Popen to return), over fresh children."""
    code = "import time; t = time.perf_counter(); import grasstau.cli; print(time.perf_counter() - t)"
    spawn, bare, imports = [], [], []
    for argv in [["-c", "pass"]] * CLI_PROBES + [["-c", code]] * CLI_PROBES:
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE, env=env, text=True) as proc:
            t1 = time.perf_counter()
            out, _ = proc.communicate(timeout=60)
            t2 = time.perf_counter()
        spawn.append(t1 - t0)
        if argv[1] == "pass":
            bare.append(t2 - t0)
        else:
            imports.append(float(out))
    return {
        "cli.spawn_ms": (statistics.median(spawn) * 1000, "ms"),
        "cli.interpreter_ms": (statistics.median(bare) * 1000, "ms"),
        "cli.import_ms": (statistics.median(imports) * 1000, "ms"),
    }


def run_traced(name: str, seed: int, workdir: Path) -> dict:
    from tracing import Tracer

    wl = make_workload(name, seed, workdir)
    # the cli sweep runs through grasstau.cli.main in this process, so the
    # trace sees the cli and serialize layers
    batch = list(wl.sweep(0, in_process=True) if name == "cli" else wl.sweep(0))
    plain = [timed(call) for call in batch]
    tracer = Tracer().install()
    try:
        traced = [timed(call) for call in batch]
    finally:
        tracer.uninstall()

    failed = sum(not judged(call, res) for call, (_, res) in zip(batch, traced))
    same = all(a == b for (_, a), (_, b) in zip(plain, traced))
    t_plain = sum(dt for dt, _ in plain)
    t_traced = sum(dt for dt, _ in traced)
    metrics = tracer.metrics()
    codes = defaultdict(int)
    if name == "cli":
        for _, res in traced:
            codes[None if isinstance(res, Failure) else res[0]] += 1
        metrics.update(cli_probes(child_env()))
    else:
        metrics.update({k: (0.0, "ms") for k in ("cli.spawn_ms", "cli.interpreter_ms", "cli.import_ms")})
    for code in (0, 2, 3, 4):
        metrics[f"cli.exit_{code}"] = (codes[code], "count")
    metrics["trace.overhead_share"] = (t_traced / t_plain - 1, "ratio")

    print(f"workload {name}: seed {seed}, traced sweep of {len(batch)} calls "
          f"({t_plain:.2f} s untraced, {t_traced:.2f} s traced)")
    print(f"  traced results identical to untraced: {'yes' if same else 'NO'}")
    print(f"  oracles: {len(batch) - failed}/{len(batch)} passed")
    for key, (value, unit) in sorted(metrics.items()):
        if value:
            print(f"  {key} = {value:.6g} {unit}")
    return {"correct": failed == 0 and same, "attempted": len(batch), "failed": failed, "metrics": metrics}


# ----------------------------------------------------------------------


def emit(result: dict) -> None:
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def run_all(seed: int, seconds: int) -> int:
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
        status |= subprocess.run(argv, cwd=ROOT, timeout=600).returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description="grasstau benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "grasstau" / "__init__.py").is_file():
        print(f"bench: no grasstau sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    workdir = BUILD / f"work-{os.getpid()}"
    try:
        if args.setup_only:
            pin_bytecode()
            make_pool(make_workload(args.workload, args.seed, workdir), args.workload)
            print("ready", flush=True)
            return 0
        build(args.workload, args.seed)
        pin_bytecode()
        # one core for this process and every child, so the reference
        # samples and the timed calls run on the same core
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        if args.trace:
            result = run_traced(args.workload, args.seed, workdir)
        else:
            result = run_untraced(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
