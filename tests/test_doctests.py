"""Run the module doctests that document the kernel fast paths.

``repro.common.analytic`` and ``repro.common.memo`` carry executable
examples in their docstrings (the closed-form helpers, the plan sizing
rules, the kill-switch semantics, the bounded memo).  Wiring them into
pytest keeps the documentation honest: an example that drifts from the
code fails CI.
"""

from __future__ import annotations

import doctest

import pytest


@pytest.mark.parametrize(
    "module_name",
    ["repro.common.analytic", "repro.common.memo"],
)
def test_module_doctests(module_name):
    module = __import__(module_name, fromlist=["_"])
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module_name} has no doctests to run"
    assert results.failed == 0, f"{module_name}: {results.failed} doctest(s) failed"
