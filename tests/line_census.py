"""Line census: the package lines that no test enters.

Runs tier-1, or the pytest selection given as arguments, in this process
under a ``sys.settrace`` hook that records the lines run in package frames
only.  The hook is set before pytest starts, so the imports that collection
makes are traced too, and again before every test, since a test or a
library (hypothesis) may replace it.  The lines of the package are those of
every function body (``co_lines()`` of each function code object, module and
class bodies skipped, as ``tests/test_reachability.py`` collects them), read
before the run.  It prints each line that no test entered, ``raise`` lines
marked, then a tally.

Tests that start a subprocess (the golden report, the fresh-interpreter and
broken-pipe tests, the reachability test) are not traced, so a line that
only they run is listed although it is covered.  Tracing makes tier-1 about
three times slower.  Opt-in and stdlib only beside pytest itself (pytest does
not collect it):

    PYTHONPATH=src python tests/line_census.py [pytest arguments]
"""

import sys
import threading
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS))

from test_reachability import PACKAGE, package_functions  # noqa: E402


class Census:
    """A pytest plugin that traces every test; ``entered`` holds (file, line)."""

    def __init__(self):
        self.entered = set()
        self.prefix = str(PACKAGE)

    def _call(self, frame, event, arg):
        if not frame.f_code.co_filename.startswith(self.prefix):
            return None
        self.entered.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            self.entered.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        sys.settrace(self._call)
        threading.settrace(self._call)
        yield
        sys.settrace(None)
        threading.settrace(None)


def package_lines() -> set:
    """(file, line) of every line of a function body in the package."""
    return {(code.co_filename, line) for code in package_functions().values()
            for _, _, line in code.co_lines() if line is not None}


def main(args: list) -> int:
    lines, census = package_lines(), Census()
    sys.settrace(census._call)
    code = pytest.main(["-q", "-p", "no:cacheprovider", *(args or [str(TESTS)])],
                       plugins=[census])
    sys.settrace(None)
    missed = sorted(lines - census.entered)
    sources = {}
    for filename, line in missed:
        text = sources.setdefault(filename, Path(filename).read_text().splitlines())[line - 1]
        mark = "raise" if text.lstrip().startswith("raise") else "     "
        print(f"{Path(filename).relative_to(PACKAGE).as_posix()}:{line}  {mark}  {text.strip()}")
    raises = sum(1 for f, n in missed if sources[f][n - 1].lstrip().startswith("raise"))
    print(f"{len(missed)} of {len(lines)} package lines never entered, "
          f"{raises} of them raise lines")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
