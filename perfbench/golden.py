"""Golden output digests for ``--seed 0``, the repository's default seeds.

``golden.json`` maps each artifact id to the SHA-256 of its markdown
(``suite``), and each sim-exact run -- ``<workload>/<regime>`` plus
``multicore`` -- to the SHA-256 of its result as sorted-key JSON
(``sim-exact``).  The digests were made by the program as it stood
when the benchmark was defined.  Regenerate them only for a change
that is meant to alter printed results:

    python3 perfbench/golden.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path
from typing import Dict

PATH = Path(__file__).resolve().parent / "golden.json"


def load() -> Dict[str, Dict[str, str]]:
    return json.loads(PATH.read_text())


def main() -> int:
    import run

    bench = run.Bench("suite-cold", seed=None, seconds=0, trace=False)
    try:
        suite = bench.suite(1, "on", bench.fresh_cache())
        sim = bench.child(
            {"mode": "sim", "seed": None, "reps": 1, "trace": False, "cache_disabled": True}
        )
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    if suite["failed"] or suite["audit"] or sim["analytic_mismatches"]:
        print("golden: the program failed its own checks; nothing written", file=sys.stderr)
        return 1
    document = {"suite": suite["outputs"], "sim-exact": sim["outputs"]}
    PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(suite['outputs'])} + {len(sim['outputs'])} digests to {PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
