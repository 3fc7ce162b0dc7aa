"""Regenerate the paper's evaluation from the command line.

Usage::

    python -m repro.experiments                     # every table and figure
    python -m repro.experiments fig12 fig13         # selected artifacts
    python -m repro.experiments --jobs 4            # parallel across processes
    python -m repro.experiments --serial --no-cache # cold, sequential run
    python -m repro.experiments --refresh           # recompute + repopulate cache
    python -m repro.experiments summary             # telemetry of the last run

Results are cached on disk keyed by source fingerprint and parameters
(`docs/EXPERIMENT_GUIDE.md`); every run writes a JSON telemetry report
the ``summary`` subcommand renders.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.experiments import cache as result_cache
from repro.experiments import engine
from repro.experiments.registry import REGISTRY
from repro.common.telemetry import RunReport


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro.experiments", description=__doc__)
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="experiment",
        help="experiment ids (e.g. fig2 fig12 table1); all when omitted",
    )
    parser.add_argument(
        "--events", type=int, default=None, help="trace length per workload"
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="input seed, given unchanged to every experiment",
    )
    jobs = parser.add_mutually_exclusive_group()
    jobs.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="run experiments across N worker processes (default: 1)",
    )
    jobs.add_argument(
        "--serial", action="store_true", help="force sequential execution"
    )
    cache_group = parser.add_mutually_exclusive_group()
    cache_group.add_argument(
        "--no-cache", action="store_true",
        help="bypass every on-disk cache tier (as REPRO_CACHE_DISABLE=1 does)",
    )
    cache_group.add_argument(
        "--refresh", action="store_true",
        help="recompute every experiment and repopulate the cache",
    )
    parser.add_argument(
        "--cache-dir", type=str, default=None,
        help="cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro-draco)",
    )
    parser.add_argument(
        "--report", type=str, default=None,
        help="write the JSON run report here (default: <cache>/runs/run-<ts>.json)",
    )
    parser.add_argument(
        "--csv-dir", type=str, default=None,
        help="also write each artifact as <id>.csv into this directory",
    )
    parser.add_argument(
        "--markdown", type=str, default=None,
        help="also write all artifacts into one markdown report file",
    )
    parser.add_argument(
        "--quiet", "-q", action="store_true", help="suppress per-artifact tables"
    )
    return parser


def _summary_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments summary",
        description="Render the telemetry of a previous run.",
    )
    parser.add_argument(
        "--report", type=str, default=None,
        help="run report to render (default: <cache>/runs/latest.json)",
    )
    parser.add_argument(
        "--cache-dir", type=str, default=None,
        help="cache directory to look for runs/latest.json in",
    )
    parser.add_argument(
        "--flows", action="store_true",
        help="also render the per-regime flow ledger (Table I flows) and "
        "its conservation audit; exits non-zero on drift",
    )
    parser.add_argument(
        "--stages", action="store_true",
        help="also render per-stage hit/exec/dedup counters and the "
        "slowest executed stages of the stage-graph orchestrator",
    )
    args = parser.parse_args(argv)
    if args.cache_dir:
        import os

        os.environ[result_cache.CACHE_DIR_ENV] = args.cache_dir
    if args.report:
        path = Path(args.report)
    else:
        path = result_cache.cache_root() / "runs" / "latest.json"
    if not path.exists():
        print(f"no run report at {path} — run some experiments first", file=sys.stderr)
        return 1
    report = RunReport.read(path)
    print(report.format_summary())
    if args.stages:
        print()
        print(report.format_stages())
    if args.flows:
        print()
        print(report.format_flows())
        if report.audit_flow_conservation():
            return 1
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "summary":
        return _summary_main(argv[1:])
    args = _build_parser().parse_args(argv)

    known = {e.experiment_id for e in REGISTRY}
    unknown = [i for i in args.experiments if i not in known]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(sorted(known))}", file=sys.stderr)
        return 2

    if args.no_cache:
        cache_mode = engine.CACHE_OFF
    elif args.refresh:
        cache_mode = engine.CACHE_REFRESH
    else:
        cache_mode = engine.CACHE_ON

    run = engine.run_suite(
        args.experiments or None,
        events=args.events,
        seed=args.seed,
        jobs=1 if args.serial else max(args.jobs, 1),
        cache_mode=cache_mode,
        cache_dir=args.cache_dir,
    )

    markdown_parts = []
    for outcome in run.outcomes:
        if outcome.result is None:
            continue
        if not args.quiet:
            print(outcome.result.format_table())
            print()
        if args.csv_dir:
            directory = Path(args.csv_dir)
            directory.mkdir(parents=True, exist_ok=True)
            outcome.result.write_csv(directory / f"{outcome.experiment_id}.csv")
        if args.markdown:
            markdown_parts.append(outcome.result.to_markdown())
    if args.markdown:
        header = "# Draco reproduction — regenerated evaluation\n\n"
        Path(args.markdown).write_text(header + "\n".join(markdown_parts))

    print(run.report.format_summary())
    try:
        print(f"report: {engine.write_report(run, args.report)}")
    except OSError as exc:
        print(f"warning: run report not written ({exc})", file=sys.stderr)

    for outcome in run.failures:
        print(f"\n--- {outcome.experiment_id} failed ---", file=sys.stderr)
        print(outcome.record.error, file=sys.stderr)
    return 1 if run.failures else 0


if __name__ == "__main__":
    sys.exit(main())
