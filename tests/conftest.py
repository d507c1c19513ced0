"""Shared pytest hooks: the acceptance criteria's summary lines.

spectral_series is imported before anything else, as README asks: the
package applies SPECTRAL_SERIES_THREADS to the BLAS thread variables at
import time, so a test module that imports scipy first would start scipy's
OpenBLAS at the CPU count, while the child processes some tests spawn
inherit the capped variables and run another thread count.
"""

import spectral_series  # noqa: F401  (first: see the module notes)

import re

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter):
    lines = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            match = _CRITERION.search(report.nodeid)
            if match and report.when == "call":
                number, slug = match.groups()
                verdict = "PASS" if outcome == "passed" else "FAIL"
                lines[int(number)] = (
                    f"criterion {number} {slug.replace('_', ' ')}: {verdict}"
                )
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for number in sorted(lines):
            terminalreporter.write_line(lines[number])
