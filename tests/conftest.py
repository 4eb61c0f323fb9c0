import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# the test oracles' own asserts are their checks: rewritten, they also
# run under python -O
pytest.register_assert_rewrite("slit_reference", "contour_reference", "geodesic_reference")


def pytest_terminal_summary(terminalreporter):
    """Print the acceptance scoreboard collected during the run."""
    mod = sys.modules.get("test_acceptance")
    verdicts = getattr(mod, "VERDICTS", None) if mod else None
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for line in verdicts:
            terminalreporter.write_line(line)
