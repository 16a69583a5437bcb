"""Benchmark of the Monte Carlo studies: ``statinv converge`` end to end.

    python3 benchmarks/run.py --workload veto --seed 20260811 --seconds 40 --trace 0

Run from the root of a source checkout.  One benchmark process launches
fresh ``statinv converge`` processes one at a time (a closed loop with one
client) for about ``--seconds``, passing ``--seed`` on to ``converge``.  It
checks each run's CSV (against ``reference/<workload>.csv`` at the
workload's default seed, by seed-independent invariants otherwise) and
prints every metric by name and unit.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

* ``--trace 0`` measures the end-to-end metrics on untraced processes.
* ``--trace 1`` alternates traced and untraced processes and reports the
  per-layer metrics of ``report.PER_LAYER`` (medians over the traced
  processes), plus the tracing overhead: traced minus untraced ``wall_s``.

BLAS threads are pinned to one through the environment of this process,
which the ``converge`` processes inherit.  Scratch files go to
``.bench_work/``: the results file with the environment record under
``results/``, and the spans of the last traced process in
``<workload>.trace.json``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import report

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD = BENCH / "converge_child.py"

# A run launches no process that the previous one's duration says would end
# after --seconds, and kills any process still running at HARD_LIMIT_S, so
# that it ends within 180 s whatever happens.
HARD_LIMIT_S = 170.0
# One BLAS thread: on a 2-vCPU machine the process-to-process spread of
# fine_grid wall time was 6 % with one thread against 11 % with two.
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    config: str  # relative to the checkout root
    overrides: dict = field(default_factory=dict)


# Why each workload exists is recorded in BENCHMARK.json.  oracle runs at
# n = 512 rather than the committed 256.  At 256 its wall time swung by up to
# 2x with the load of other tenants on a shared 2-vCPU host (likely because
# its three 512 KiB matrices nearly fill a core's 2 MiB L2 cache); processes
# interleaved with n = 256 ones spread 5 % (IQR/median) at n = 512, 14 % at 256.
WORKLOADS = {
    "veto": Workload("configs/veto.cfg"),
    "oracle": Workload(
        "configs/mse_oracle.cfg", {"operator.n": "512", "schedule.n_max": "512", "replicates": "400"}
    ),
    "fine_grid": Workload("benchmarks/fine_grid.cfg"),
}

# metric -> (unit, better); error_rate is printed but is not a BENCHMARK.json
# metric, because it is 0 whenever the program works; the result line carries
# "attempted" and "failed" instead.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "replicates_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}


def read_config(path):
    """Flat ``key = value`` lines, ``#`` comments, as an ordered dict of strings.

    Read here rather than with ``statinv.harness.parse_config`` so that the
    benchmark process never imports the code it measures.
    """
    config = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = (part.strip() for part in line.split("=", 1))
            config[key] = value
    return config


def prepare(name):
    """Write the workload's effective config; return (path, config)."""
    workload = WORKLOADS[name]
    config = read_config(ROOT / workload.config)
    config.update(workload.overrides)
    config.pop("out", None)
    path = WORK / f"{name}.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()), encoding="utf-8")
    return path, config


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Process:
    traced: bool
    exit_code: int | None = None
    wall_s: float | None = None
    setup_s: float | None = None
    replicates_per_s: float | None = None
    peak_rss_mb: float | None = None
    problems: list = field(default_factory=list)
    layers: dict | None = None  # per-layer metrics of a traced process


def launch(argv, env, stdout, stderr, timeout):
    """Run one process to completion; return (exit code or None, start ns, end ns, rusage).

    The exit is awaited on a pidfd, so the end time carries no polling delay.
    A process still running after ``timeout`` seconds is killed (exit None),
    and so is one whose wait is interrupted; either way it is reaped.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.monotonic_ns()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    ready = []
    try:
        fd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([fd], [], [], max(timeout, 0.0))
        finally:
            os.close(fd)
    finally:
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    end = time.monotonic_ns()
    return (os.waitstatus_to_exitcode(status) if ready else None), start, end, usage


def run_process(name, seed, traced, cfg_path, n_reps, deadline):
    out_csv = WORK / f"{name}.csv"
    record_path = WORK / f"{name}.{'trace.json' if traced else 'record'}"
    for path in (out_csv, record_path):
        path.unlink(missing_ok=True)
    argv = [
        sys.executable, str(CHILD), str(record_path), "1" if traced else "0",
        "converge", "--config", str(cfg_path), "--seed", str(seed), "--out", str(out_csv),
    ]
    code, start, end, usage = launch(
        argv, child_env(), WORK / f"{name}.stdout", WORK / f"{name}.stderr", deadline - time.monotonic()
    )
    proc = Process(traced=traced, exit_code=code)
    if code != 0:
        proc.problems.append("killed at the time limit" if code is None else f"exit code {code}")
        return proc, None
    proc.wall_s = (end - start) / 1e9
    proc.peak_rss_mb = usage.ru_maxrss / 1024.0
    try:
        record = json.loads(record_path.read_text(encoding="ascii"))
        first = record["first_observe_ns"] if traced else record
        csv_text = out_csv.read_text(encoding="ascii")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        proc.problems.append(f"no usable output: {exc}")
        return proc, None
    if not isinstance(first, int):
        proc.problems.append("noise.observe was never called")
        return proc, None
    proc.setup_s = (first - start) / 1e9
    proc.replicates_per_s = n_reps / ((end - first) / 1e9)
    if traced:
        proc.layers = report.layer_values(record, name)
    return proc, csv_text


def check_csv(csv_text, name, seed, default_seed, replicates):
    """Problems with one study CSV, and the reference status it reached."""
    ref_text = (BENCH / "reference" / f"{name}.csv").read_text(encoding="ascii")
    try:
        problems = report.check_invariants(csv_text, ref_text, replicates)
        if seed != default_seed:
            return problems, "unchecked"
        problems += report.compare_to_reference(csv_text, ref_text)
    except (ValueError, KeyError) as exc:
        return [f"malformed CSV: {exc}"], "mismatch"
    return problems, "mismatch" if problems else "match"


def run(name, seed, seconds, trace):
    cfg_path, config = prepare(name)
    deltas = [float(v) for v in config["delta_list"].split(",")]
    replicates = int(config["replicates"])
    n_reps = len(deltas) * replicates
    default_seed = int(config["seed"])

    start = time.monotonic()
    stop, hard = start + seconds, start + HARD_LIMIT_S
    procs, first_csv, reference = [], None, "unchecked"
    while time.monotonic() < hard:
        traced = trace and len(procs) % 2 == 0
        launched = time.monotonic()
        proc, csv_text = run_process(name, seed, traced, cfg_path, n_reps, hard)
        duration = time.monotonic() - launched
        procs.append(proc)
        if csv_text is not None:
            if first_csv is None:
                first_csv = csv_text
                first_problems, reference = check_csv(csv_text, name, seed, default_seed, replicates)
            if csv_text == first_csv:
                proc.problems += first_problems
            else:
                proc.problems.append("CSV differs from the first process of this run")
        if proc.problems:
            tail = (WORK / f"{name}.stderr").read_text(errors="replace")[-2000:]
            print(f"process {len(procs)} failed: {proc.problems}\n{tail}", file=sys.stderr)
        done_modes = {p.traced for p in procs}
        if time.monotonic() + duration > stop and (not trace or done_modes == {True, False}):
            break
    inputs = {"n": int(config["operator.n"]), "deltas": deltas, "replicates": replicates}
    return procs, reference, inputs


def end_to_end(procs):
    good = [p for p in procs if not p.problems and not p.traced]
    return {
        metric: {**report.summarize([getattr(p, metric) for p in good], better), "unit": unit}
        for metric, (unit, better) in END_TO_END.items()
    }


def per_layer(procs):
    """Medians over traced processes; counts come from the first and must repeat."""
    traced = [p for p in procs if p.traced and not p.problems]
    untraced = [p for p in procs if not p.traced and not p.problems]
    if not traced:
        return {}, False
    runs = [p.layers for p in traced]
    values, repeat = {}, True
    for metric, (unit, *_rest) in report.PER_LAYER.items():
        if metric == "trace.overhead_s":
            continue
        samples = [r[metric] for r in runs]
        if samples[0] is None:
            values[metric] = None
        elif unit == "s":
            values[metric] = statistics.median(samples)
        else:
            values[metric] = samples[0]
            repeat = repeat and all(s == samples[0] for s in samples)
    values["trace.overhead_s"] = (
        statistics.median(p.wall_s for p in traced) - statistics.median(p.wall_s for p in untraced)
        if untraced else None
    )
    return values, repeat


def git_commit():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else None


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "statinv").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def fmt(value):
    return "missing" if value is None else f"{value:.6g}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    needed = [
        SRC / "statinv" / "cli.py", ROOT / workload.config, BENCH / "reference" / f"{args.workload}.csv"
    ]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"not a statinv source checkout, missing: {', '.join(absent)}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so that a running converge process is killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # pin BLAS threads for this process and every converge process it starts
    os.environ.update(dict.fromkeys(THREAD_VARS, THREADS))
    WORK.mkdir(exist_ok=True)
    # byte-compile once, so that no timed process pays for it
    compileall.compile_dir(str(SRC / "statinv"), quiet=1)

    procs, reference, inputs = run(args.workload, args.seed, args.seconds, bool(args.trace))
    failed = sum(1 for p in procs if p.problems)
    e2e = end_to_end(procs)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "inputs": inputs,
        "reference": reference,
        "attempted": len(procs),
        "failed": failed,
        "error_rate": failed / len(procs),
        "end_to_end": e2e,
        "processes": [
            {k: v for k, v in vars(p).items() if k != "layers"} for p in procs
        ],
    }

    print(
        f"workload {args.workload}  seed {args.seed}  processes {len(procs)}  "
        f"failed {failed}  reference {reference}  inputs {inputs}"
    )
    for metric, s in e2e.items():
        tail = f"{s['tail'][0]} {s['tail'][1]:.6g}" if s["tail"] else "none"
        print(f"  {metric:18s} {fmt(s['median']):>10s} {s['unit']:4s} median; tail {tail}; n={s['n']}")
    print(f"  {'error_rate':18s} {result['error_rate']:>10.6g} ratio ({failed}/{len(procs)})")

    if args.trace:
        layers, repeat = per_layer(procs)
        result["per_layer"] = layers
        result["counts_repeat"] = repeat
        metrics = {}
        for metric, (unit, *_rest) in report.PER_LAYER.items():
            value = layers.get(metric)
            metrics[metric] = {"value": value, "unit": unit}
            if value is None:
                metrics[metric]["missing"] = True
            print(f"  {metric:36s} {fmt(value):>12s} {unit}")
        selfs = {layer: layers.get(f"{layer}.self_s") or 0.0 for layer in report.LAYERS}
        total = sum(selfs.values()) or 1.0
        ranking = sorted(selfs.items(), key=lambda kv: -kv[1])
        result["self_time_share"] = {layer: v / total for layer, v in ranking}
        result["dominant_as_expected"] = report.dominant_as_expected(selfs, args.workload)
        print(
            "  self time by layer: " + ", ".join(f"{k} {v / total:.0%}" for k, v in ranking)
            + f"; dominant as expected: {result['dominant_as_expected']}"
        )
        if not repeat:
            print("  warning: counts differ between traced processes", file=sys.stderr)
    else:
        metrics = {m: {"value": s["median"], "unit": s["unit"]} for m, s in e2e.items()}

    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    results_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(result, indent=1, default=str) + "\n", encoding="utf-8")
    print(f"results: {results_path.relative_to(ROOT)}")

    print(json.dumps({"correct": failed == 0, "attempted": len(procs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
