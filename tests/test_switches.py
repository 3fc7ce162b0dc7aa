"""No accelerator changes a result.

The exact kernel's accelerators (the Draco steady memos and the
order-independent regimes' run shortcuts) are always on; the
``reference_kernels`` fixture (``tests/conftest.py``) patches each one
back to the code it stands in for.  The full registry's markdown must
be byte-identical either way.  Both suites run in this process with
caching off, and every in-process memo that holds results is dropped
before each, so neither leg is served what the other computed.

Three switches remain, and none has a leg here.  ``REPRO_CACHE_DIR``
and ``REPRO_CACHE_DISABLE`` are deployment settings: the filter-sweep
replays are checked against the exact kernels (``REPRO_ANALYTIC=0``)
in ``tests/test_context_cache.py``, and the warm pool against a serial
suite in ``tests/test_bulk_kernel.py::TestEngineParallel``.  The BPF
tables are checked against the reference interpreter in
``tests/test_bpf_compile.py``.  ``REPRO_ANALYTIC`` still changes
hardware-Draco cells at the default 12 000 events until the sampled
tier is deleted (ROADMAP item 1), and at the 1 200 events used here
nothing is sampled, so such a leg would prove nothing.
"""

from repro.experiments import engine, runner

EVENTS = 1200


def _markdown() -> str:
    """The registry markdown of one serial suite with caching off."""
    runner.reset_context_memos()
    run = engine.run_suite(events=EVENTS, jobs=1, cache_mode=engine.CACHE_OFF)
    assert not run.failures, [o.record.error for o in run.failures]
    return "".join(o.result.to_markdown() for o in run.outcomes)


def test_reference_kernels_leave_markdown_identical(request):
    accelerated = _markdown()
    request.getfixturevalue("reference_kernels")
    try:
        reference = _markdown()
    finally:
        runner.reset_context_memos()
    assert reference == accelerated
