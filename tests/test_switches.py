"""No switch changes a result.

Every remaining behavioural switch picks between byte-identical paths,
so the full registry's markdown must not change when one is flipped.
Each leg runs ``python -m repro.experiments`` in a fresh interpreter:
not every in-process memo is keyed on the switches, so flipping them
inside one process would compare a memo with itself.  Caching stays
on, in a fresh directory per leg.

``REPRO_BULK`` is the one behavioural switch with a leg.  The legs that
turned off the BPF tables, the context tier and the warm pool went with
their switches: each selected a byte-identical fork that only tests
set.  The BPF table is checked against the reference interpreter
in ``tests/test_bpf_compile.py``, the context tier's replays against
the exact kernels (``REPRO_CACHE_DISABLE=1``) in
``tests/test_context_cache.py``, and the warm pool against a serial
suite in ``tests/test_bulk_kernel.py::TestEngineParallel``.

``REPRO_ANALYTIC`` has no leg.  It still changes hardware-Draco cells
at the default 12 000 events until the sampled tier is deleted
(ROADMAP item 1), and at the 1 200 events used here nothing is
sampled, so such a leg would prove nothing.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
EVENTS = 1200

SERIAL = ("--serial",)

LEGS = {
    "bulk-off": ({"REPRO_BULK": "0"}, SERIAL),
}


def _markdown(workdir: Path, switches, jobs_args) -> str:
    """The registry markdown of one CLI run in a fresh interpreter,
    with no ``REPRO_*`` variable set but *switches*."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(switches)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (str(SRC), os.environ.get("PYTHONPATH")) if path
    )
    markdown = workdir / "results.md"
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.experiments",
            "--events", str(EVENTS), "--quiet",
            "--cache-dir", str(workdir / "cache"),
            "--markdown", str(markdown),
            *jobs_args,
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return markdown.read_text()


@pytest.fixture(scope="module")
def default_markdown(tmp_path_factory):
    return _markdown(tmp_path_factory.mktemp("default"), {}, SERIAL)


@pytest.mark.parametrize("leg", sorted(LEGS))
def test_switch_flip_leaves_markdown_identical(leg, default_markdown, tmp_path):
    switches, jobs_args = LEGS[leg]
    assert _markdown(tmp_path, switches, jobs_args) == default_markdown
