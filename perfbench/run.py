"""entgrover benchmark: one workload per invocation, through the real CLI path.

    python3 perfbench/run.py --workload find-wide --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it puts ``src`` on the import path
itself, because the package is not installed.  Each repetition calls
``entgrover.cli.main`` in this process with ``--out`` to a file, so the
load comes from one thread apart from the program's own worker pools.

--trace 0  end-to-end metrics, tracing off:
           setup_s      median over fresh interpreters of the time from
                        launch until entgrover.cli is imported and the
                        scenario is parsed;
           run_s        median wall time of one successful cli.main call;
           peak_rss_mb  ru_maxrss of a fresh process that runs one call;
           min_margin   smallest tolerance / value over the report's
                        deviation checks (numerical headroom).
--trace 1  per-layer metrics: the same untraced repetitions, then one
           repetition with spans at the layer boundaries (tracer.py).

Every repetition's report is checked: a run fails if it exits non-zero,
raises, or writes bytes that differ from the first successful repetition;
the first successful report is also checked against an independent
simulation (workloads.py).  Human-readable lines come first on stdout; the
last line is one JSON object with correct, attempted, failed and metrics.
Spans and a record of the run go to .perfbench-out/ in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

import tracer
from workloads import WORKLOADS, min_margin

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"

MIN_REPS = 3
SETUP_PROBES = 11
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("min_margin", "ratio"),
)
# Reported in every run's summary, and as a per-layer metric: on every
# workload the benchmark keeps it reads 0, which an end-to-end bound cannot use.
FAIL_FRAC = ("fail_frac", "ratio", "lower")
OVERHEAD = ("trace.overhead_frac", "ratio", "lower")
PER_LAYER = (*tracer.SPAN_METRICS, OVERHEAD, FAIL_FRAC)

THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMBA_NUM_THREADS",
)


@dataclass
class Rep:
    seconds: float
    error: str | None
    data: bytes | None


def run_once(main, argv: list[str], out: Path) -> Rep:
    """One cli.main call; a non-zero exit or a raise is a failed run."""
    out.unlink(missing_ok=True)
    gc.collect()
    err = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            rc = main(argv + ["--out", str(out)])
    except Exception as exc:  # the run failed; record why and keep measuring
        rc, error = None, f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if rc != 0 and error is None:
        lines = err.getvalue().splitlines()
        error = f"exit {rc}: " + " / ".join(lines[-2:] if rc == 2 else lines[-1:])
    data = out.read_bytes() if error is None else None
    return Rep(seconds, error, data)


def run_for(main, argv: list[str], out: Path, seconds: float) -> list[Rep]:
    """Repeat until the next repetition would end past the time budget."""
    reps: list[Rep] = []
    start = time.perf_counter()
    while True:
        reps.append(run_once(main, argv, out))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.seconds for r in reps)
        if len(reps) >= MIN_REPS and elapsed + typical > seconds:
            return reps


def judge(reps: list[Rep]) -> bytes | None:
    """Mark repetitions whose report differs from the first successful one."""
    reference = None
    for rep in reps:
        if rep.error is not None:
            continue
        if reference is None:
            reference = rep.data
        elif rep.data != reference:
            rep.error = "report bytes differ from the first successful repetition"
    return reference


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_seconds(config: str) -> list[float]:
    """Launch-to-parsed time of fresh interpreters (each one is waited for)."""
    out = []
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), "setup", config]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            rc = proc.wait(timeout=CHILD_TIMEOUT_S)
        if line != b"ready\n" or rc != 0:
            raise RuntimeError(f"setup probe failed with exit {rc}")
        out.append(elapsed)
    return out


def peak_rss_mb(argv: list[str], out: Path) -> float:
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), "rss", *argv, "--out", str(out)]
    proc = subprocess.run(
        cmd, capture_output=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True
    )
    return json.loads(proc.stdout.decode().splitlines()[-1])["maxrss_kb"] / 1024.0


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def environment() -> dict:
    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "caches": cache_sizes(),
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "entgrover" / "cli.py").is_file():
        print(f"perfbench: no entgrover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from entgrover import cli

    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        argv_run, scenario = workload.make(args.seed, ROOT, work)
        config = argv_run[argv_run.index("--config") + 1]
        out = work / "report.out"
        env = environment()

        setup = rss = None
        if args.trace == 0:
            setup = setup_seconds(config)
            rss = peak_rss_mb(argv_run, work / "rss.out")
        reps = run_for(cli.main, argv_run, out, args.seconds)
        traced_rep = spans = None
        if args.trace == 1:
            tr = tracer.Tracer(tag)
            with tr:
                traced_rep = run_once(tr.wrap(cli.main, "cli.main"), argv_run, out)
            spans = tr.spans
            reps_all = reps + [traced_rep]
        else:
            reps_all = reps
        reference = judge(reps_all)

        problems = []
        report = digest = None
        if reference is not None:
            report = json.loads(reference)
            problems = workload.check(report, scenario, args.seed)
            digest = hashlib.sha256(reference).hexdigest()
        failed = [r for r in reps_all if r.error is not None]
        ok_times = [r.seconds for r in reps if r.error is None]
        run_s = statistics.median(ok_times) if ok_times else None
        fail_frac = len(failed) / len(reps_all)
        correct = not failed and not problems

        lines = [f"perfbench: workload {args.workload} seed {args.seed} trace {args.trace}"]
        lines += [f"perfbench: env {k} = {json.dumps(v)}" for k, v in env.items()]
        if setup is not None:
            lines.append(f"perfbench: setup_s = {statistics.median(setup):.4f} s "
                         f"(median of {len(setup)} fresh interpreters)")
        lines.append(f"perfbench: run_s = {run_s if run_s is None else f'{run_s:.4f}'} s "
                     f"(median of {len(ok_times)} successful of {len(reps)} untraced runs)")
        if rss is not None:
            lines.append(f"perfbench: peak_rss_mb = {rss:.1f} MB (1 fresh process, 1 run)")
        lines.append(f"perfbench: fail_frac = {fail_frac:.4f} ratio "
                     f"({len(failed)} of {len(reps_all)} runs failed)")
        margin = min_margin(report) if report is not None else None
        lines.append(f"perfbench: min_margin = {margin} ratio (1 report, deterministic)")
        if reference is not None:
            lines.append(f"perfbench: report sha256 = {digest} ({len(reference)} bytes)")
        for i, rep in enumerate(reps_all):
            if rep.error is not None:
                lines.append(f"perfbench: run {i} failed: {rep.error}")
        lines += [f"perfbench: incorrect report: {p}" for p in problems]

        if args.trace == 0:
            metrics = {
                "setup_s": statistics.median(setup),
                "run_s": run_s,
                "peak_rss_mb": rss,
                "min_margin": margin,
            }
            units = dict(END_TO_END)
        else:
            metrics = tracer.span_metrics(spans, len(reference) if reference else 0)
            overhead = traced_rep.seconds / run_s - 1.0 if run_s else None
            metrics.update({OVERHEAD[0]: overhead, FAIL_FRAC[0]: fail_frac})
            units = {name: unit for name, unit, _ in PER_LAYER}
            spans_path = OUT_DIR / f"{tag}.spans.jsonl"
            with open(spans_path, "w", encoding="utf-8") as fh:
                for span in spans:
                    fh.write(json.dumps(span.to_json_obj(tag)) + "\n")
            lines.append(f"perfbench: {len(spans)} spans written to {spans_path.relative_to(ROOT)}")
            for name, value in metrics.items():
                lines.append(f"perfbench: {name} = {value} {units[name]}")

        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "env": env,
            "report_sha256": digest,
            "run_seconds": [r.seconds for r in reps],
            "setup_seconds": setup,
            "errors": [r.error for r in reps_all if r.error is not None],
            "problems": problems,
            "metrics": metrics,
        }
        (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in lines:
        print(line)
    result = {
        "correct": correct,
        "attempted": len(reps_all),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
