import sys

import pytest

from osev.data import SyntheticSpec, generate, save_dataset


@pytest.fixture(scope="session")
def default_dataset(tmp_path_factory):
    """``SyntheticSpec()`` (5 known / 5 unknown classes, default sizes), generated
    and saved once per session; the tests that take it only read it."""
    spec = SyntheticSpec()
    out = tmp_path_factory.mktemp("default_data")
    save_dataset(spec, generate(spec), out)
    return str(out)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the release-gate verdict lines after capture has ended."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "VERDICTS", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
