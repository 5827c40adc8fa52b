import os

import acceptance_report
from hypothesis import settings

# CI runs with HYPOTHESIS_PROFILE=ci: derandomized examples, so a failure
# there replays locally with the same profile, and the blob to reproduce it.
settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_terminal_summary(terminalreporter):
    if acceptance_report.LINES:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_report.LINES:
            terminalreporter.write_line(line)
