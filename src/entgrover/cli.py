"""Command-line entry point: find | count | verify | sweep, driven by JSON configs.

Exit codes: 0 success, 1 usage or configuration error, 2 verification failure.
Reports go to --out (or stdout); the run's wall time, its memory plan's peak
and status lines go to stderr so the written artifact stays byte-identical
across runs.  --workers (like the scenario key "workers") is checked and
otherwise has no effect: every run is sequential.
"""
from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

from .harness import Report, ScenarioError, load_scenario, read_option, run_scenario
from .qstate import MemoryLimitError

USAGE_EXIT = 1
VERIFY_FAIL_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; keep 2 for failures only
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="entgrover", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("find", "count", "verify", "sweep"):
        p = sub.add_parser(name, help=f"run a '{name}' scenario")
        p.add_argument("--config", required=True, help="path to the scenario JSON")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--workers", type=int, help="worker count, >= 1 (accepted; has no effect)")
        p.add_argument("--seed", type=int, help="count: the sampling seed; verify: the corpus seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        scenario = load_scenario(args.config)
        if scenario.kind != args.command:
            raise ScenarioError(
                f"config kind {scenario.kind!r} does not match subcommand {args.command!r}"
            )
        if args.workers is not None:
            read_option(scenario.kind, "workers", args.workers)
        if args.seed is not None:
            scenario = replace(scenario, seed=read_option(scenario.kind, "seed", args.seed))
        start = time.perf_counter()
        report = run_scenario(scenario)
        seconds = time.perf_counter() - start
    except ScenarioError as exc:
        print(f"entgrover: config error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ValueError, MemoryLimitError) as exc:
        print(f"entgrover: error: {exc}", file=sys.stderr)
        return USAGE_EXIT

    text = report.to_csv() if scenario.output_format == "csv" else report.to_json()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"entgrover: error: cannot write {args.out!r}: {exc}", file=sys.stderr)
            return USAGE_EXIT
    else:
        sys.stdout.write(text)
    _print_summary(report, seconds)
    if scenario.kind == "sweep":
        skipped = report.payload.get("skipped", 0)
        if skipped:
            print(f"entgrover: warning: {skipped} cell(s) skipped (memory cap)", file=sys.stderr)
    return 0 if report.passed else VERIFY_FAIL_EXIT


def _print_summary(report: Report, seconds: float) -> None:
    verdict = "pass" if report.passed else "FAIL"
    print(f"entgrover: {report.kind}: {verdict} in {seconds:.2f}s "
          f"(plan {report.planned / 1e6:.2f} MB)", file=sys.stderr)
    for item in report.payload.get("criteria", []):
        state = "PASS" if item["passed"] else "FAIL"
        print(
            f"entgrover:   {state} {item['name']} "
            f"(max_dev={item['max_deviation']:.3e}, tol={item['tolerance']:.1e})",
            file=sys.stderr,
        )


if __name__ == "__main__":
    raise SystemExit(main())
