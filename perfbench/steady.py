"""Steadiness report: one workload run N times, each with another seed.

    python3 perfbench/steady.py --workload sim-exact --runs 10 --save first.json
    python3 perfbench/steady.py --workload sim-exact --runs 10 --save second.json
    python3 perfbench/steady.py --compare first.json second.json

Per end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread -- the distance
between the quartiles as a share of the median -- against the metric's
bound in ``BENCHMARK.json``, and whether the spread is below a third of
the bound.  A set is steady when every spread, ``setup_s``'s included,
is within its bound.  ``--compare`` says whether two saved sets agree:
both steady, and no median of the second worse than the first's by more
than the bound.  Both sets must have run the same seeds, so the input
mix is the same and a difference between them can only be noise.  The
exit status is 1 when a run fails or the sets do not agree.

Right before each run it also times a fixed chunk of interpreter work
(``host_s``), so that a spread or a shift can be read against how fast
the host ran Python at the time.  It is a diagnostic, not a metric, and
corrects nothing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def host_s(chunks: int = 10) -> float:
    """Median seconds of a fixed chunk of dict and integer work, about
    0.1 s on a quiet host, over ``chunks`` chunks."""
    times = []
    for _ in range(chunks):
        began = time.perf_counter()
        table: Dict[int, int] = {}
        for i in range(1_000_000):
            table[i % 97] = table.get(i % 97, 0) + (i & 7)
        times.append(time.perf_counter() - began)
    return statistics.median(times)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    host = host_s()
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["host_s"] = host
    values = "  ".join(f"{k} {m['value']:.4f}" for k, m in result["metrics"].items())
    print(f"  {workload} seed {seed}: {values}  host_s {host:.4f}", flush=True)
    return result


def spread(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def report(spec: dict, runs: Dict[str, List[dict]]) -> List[str]:
    """Print the per-metric summary; return the spreads beyond bound."""
    problems = []
    for workload, results in runs.items():
        print(f"{workload}  ({len(results)} runs)")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = spread([r["metrics"][name]["value"] for r in results])
            verdict = "steady" if stats["spread"] < bound / 3 else (
                "within bound" if stats["spread"] <= bound else "TOO WIDE"
            )
            print(
                f"  {name:12s} median {stats['median']:10.4f} {metric['unit']:3s}"
                f" q1 {stats['q1']:10.4f}  q3 {stats['q3']:10.4f}"
                f"  spread {stats['spread']:6.1%} / bound {bound:.0%}  {verdict}"
            )
            if stats["spread"] > bound:
                problems.append(f"{workload} {name}: spread {stats['spread']:.1%} > {bound:.0%}")
        if all("host_s" in r for r in results):
            stats = spread([r["host_s"] for r in results])
            print(
                f"  {'host_s':12s} median {stats['median']:10.4f} s"
                f"   spread {stats['spread']:6.1%}  (host speed, no bound)"
            )
    return problems


def compare(spec: dict, first: dict, second: dict) -> List[str]:
    if first["seeds"] != second["seeds"]:
        raise SystemExit(
            f"the sets ran different seeds ({first['seeds']} and {second['seeds']}):"
            " their difference would mix input variation into noise"
        )
    problems = report(spec, first["runs"]) + report(spec, second["runs"])
    for workload in sorted(set(first["runs"]) & set(second["runs"])):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            before, after = (
                statistics.median(r["metrics"][name]["value"] for r in runs["runs"][workload])
                for runs in (first, second)
            )
            worse = (after - before) / before
            if metric["better"] == "higher":
                worse = -worse
            print(f"{workload:14s} {name:12s} second median {worse:+6.1%} against the first")
            if worse > bound:
                problems.append(f"{workload} {name}: second median {worse:+.1%} > {bound:.0%}")
        hosts = [[r.get("host_s") for r in runs["runs"][workload]] for runs in (first, second)]
        if None not in hosts[0] + hosts[1]:
            shift = statistics.median(hosts[1]) / statistics.median(hosts[0]) - 1
            print(f"{workload:14s} {'host_s':12s} second median {shift:+6.1%} against the first")
    return problems


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[],
                        help="workload to run (repeatable; 'all' for every workload)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save", help="write the runs here as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)

    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        problems = compare(spec, first, second)
    else:
        names = [w["name"] for w in spec["workloads"]]
        workloads = names if "all" in args.workload else args.workload
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        runs = {w: [run_once(w, seed, args.seconds) for seed in seeds] for w in workloads}
        if args.save:
            Path(args.save).write_text(json.dumps({"seeds": seeds, "runs": runs}, indent=1))
        problems = report(spec, runs)
    for problem in problems:
        print(f"NOT STEADY {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
