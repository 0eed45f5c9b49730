#!/usr/bin/env python3
"""A/B benchmark of two commits: alternating perfbench runs and one BENCH file.

    python3 scripts/ab.py PARENT_REF --out BENCH_N.json
        [--workloads find-wide count verify] [--pairs 10] [--seconds 25]
    python3 scripts/ab.py --series [BENCH_N.json ...]

PARENT_REF and HEAD are exported with ``git archive`` into
``.perfbench-out/ab/``, so each side runs its own committed files.  For every
workload and seed 1 .. pairs, ``perfbench/run.py --trace 0`` runs once on
each side, the parent first on odd seeds and the change first on even ones,
so that a drift of the host's speed falls on both sides alike.

The BENCH file holds, per workload and end-to-end metric of
``BENCHMARK.json``, each side's per-seed values, medians and quartiles, the
pairs each side won, and a verdict; per seed, each side's report sha256;
and the environment stamp of the first run.  The verdict, by the metric's
relative bound:
- ``unresolved`` when the parent's interquartile spread exceeds the bound
  times its median;
- ``worse`` when the change's median is worse than the parent's by more
  than the bound;
- ``better`` when the change won at least 90% of the pairs and its median
  is better by more than the parent's interquartile spread;
- ``within bound`` otherwise.

``--series`` reads BENCH files of this schema instead (by default every
``BENCH_*.json`` at the root of the checkout, in PR order; files of older
layouts are skipped) and prints one line per workload and metric: each
file's parent and change medians and its verdict, in file order.
"""
from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(ref: str, dest: Path) -> str:
    """The commit of ``ref``, its files exported into ``dest``."""
    commit = git("rev-parse", "--verify", f"{ref}^{{commit}}")
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as fh:
        fh.extractall(dest, filter="data")
    return commit


def run(side: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``side``: its metrics, report sha256,
    environment and whether it succeeded."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=side, capture_output=True, text=True)
    record_path = side / ".perfbench-out" / f"{workload}-seed{seed}-trace0.json"
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads(record_path.read_text())
    except (IndexError, ValueError, OSError):
        return {"ok": False, "metrics": {}, "sha256": None, "env": None,
                "error": proc.stderr.strip()[-500:] or f"exit {proc.returncode}"}
    return {"ok": proc.returncode == 0 and result["correct"], "metrics": record["metrics"],
            "sha256": record["report_sha256"], "env": record["env"], "error": None}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]] if values else [None, None]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(spec: dict, parent: list, change: list) -> dict:
    """Per-seed values of both sides (None for a failed run), their medians,
    quartiles, pairs won and the verdict."""
    lower = spec["better"] == "lower"
    pairs = [(p, c) for p, c in zip(parent, change) if p is not None and c is not None]
    won = sum((c < p) if lower else (c > p) for p, c in pairs)
    lost = sum((c > p) if lower else (c < p) for p, c in pairs)
    out = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
           "parent": parent, "change": change}
    ok_p, ok_c = [p for p, _ in pairs], [c for _, c in pairs]
    if not pairs:
        return dict(out, verdict="unresolved")
    med_p, med_c = statistics.median(ok_p), statistics.median(ok_c)
    q_p = quartiles(ok_p)
    spread = q_p[1] - q_p[0]
    worse_by = (med_c - med_p) if lower else (med_p - med_c)
    scale = abs(med_p) or 1.0
    if spread > spec["bound"] * scale:
        verdict = "unresolved"
    elif worse_by > spec["bound"] * scale:
        verdict = "worse"
    elif won >= 0.9 * len(pairs) and -worse_by > spread:
        verdict = "better"
    else:
        verdict = "within bound"
    return dict(out, median={"parent": med_p, "change": med_c},
                quartiles={"parent": q_p, "change": quartiles(ok_c)},
                change_pct=100.0 * (med_c - med_p) / scale,
                parent_spread_pct=100.0 * spread / scale,
                pairs_won={"change": won, "parent": lost, "tied": len(pairs) - won - lost},
                verdict=verdict)


def series(paths: list[Path]) -> list[str]:
    """One line per workload and metric of the ``entgrover-ab/1`` files among
    ``paths``: each file's parent and change medians and verdict, in order."""
    lines: dict[tuple[str, str], list[str]] = {}
    for path in paths:
        bench = json.loads(path.read_text())
        if bench.get("schema") != "entgrover-ab/1":
            continue
        for workload, entry in bench["workloads"].items():
            for name, m in entry["metrics"].items():
                median = m.get("median")
                cell = (f"{median['parent']:.4g} -> {median['change']:.4g}" if median
                        else "no pairs")
                lines.setdefault((workload, name), []).append(
                    f"{path.stem} {cell} ({m['verdict']})")
    return [f"{workload} {name}: " + "; ".join(cells)
            for (workload, name), cells in lines.items()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", metavar="PARENT_REF", nargs="?")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--series", nargs="*", type=Path, metavar="BENCH_FILE")
    args = parser.parse_args(argv)
    if args.series is not None:
        paths = args.series or sorted(ROOT.glob("BENCH_*.json"),
                                      key=lambda p: int(p.stem.split("_")[1]))
        print("\n".join(series(paths)))
        return 0
    if args.parent is None or args.out is None:
        parser.error("PARENT_REF and --out are required unless --series is given")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    sides = {name: ROOT / ".perfbench-out" / "ab" / name for name in ("parent", "change")}
    commits = {name: export(ref, sides[name])
               for name, ref in (("parent", args.parent), ("change", "HEAD"))}
    seeds = list(range(1, args.pairs + 1))

    env = None
    result = {"workloads": {}}
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for seed in seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for name in order:
                runs[name].append(run(sides[name], workload, seed, seconds))
                env = env or runs[name][-1]["env"]
                print(f"ab: {workload} seed {seed} {name}: "
                      f"{runs[name][-1]['metrics'] or runs[name][-1]['error']}", file=sys.stderr)
        def values(name: str, metric: str) -> list:
            return [r["metrics"].get(metric) if r["ok"] else None for r in runs[name]]

        metrics = {spec["name"]: summarize(spec, values("parent", spec["name"]),
                                           values("change", spec["name"]))
                   for spec in bench["end_to_end"]}
        reports = [{"seed": seed, "parent": p["sha256"], "change": c["sha256"],
                    "same": p["sha256"] is not None and p["sha256"] == c["sha256"]}
                   for seed, p, c in zip(seeds, runs["parent"], runs["change"])]
        failed = {name: [r["error"] or "incorrect" for r in runs[name] if not r["ok"]]
                  for name in runs}
        result["workloads"][workload] = {"metrics": metrics, "reports": reports,
                                         "failed": failed}

    bench_file = {
        "schema": "entgrover-ab/1",
        "parent": {"ref": args.parent, "commit": commits["parent"]},
        "change": {"ref": "HEAD", "commit": commits["change"]},
        "method": (f"perfbench/run.py --trace 0 --seconds {seconds:g}, seeds 1-{args.pairs} "
                   "per workload, each side a git archive of its commit, alternated with "
                   "odd seeds parent first; medians and quartiles over the seeds"),
        "environment": {k: v for k, v in (env or {}).items() if k != "commit"},
        **result,
    }
    args.out.write_text(json.dumps(bench_file, indent=1) + "\n")
    for workload, entry in result["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"ab: {workload} {name}: {m.get('median')} ({m['verdict']})")
        print(f"ab: {workload} reports identical on "
              f"{sum(r['same'] for r in entry['reports'])} of {len(entry['reports'])} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
