"""Make ``ledger`` (this benchmark) and ``repro`` importable."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
for path in (ROOT / "benchmarks", ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


def pytest_sessionfinish(session, exitstatus):
    """The tests that run blocks in this process start a resource
    tracker here; end it with the session instead of orphaning it."""
    from ledger import host

    host.reap()
