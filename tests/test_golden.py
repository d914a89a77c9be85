"""Byte-exact CLI outputs against the digests in perfbench/golden.json.

Each key of that file is a CLI argv joined by spaces; its value is the
SHA-256 of the argv's stdout.  Every argv runs in-process through
``cli.main`` here, so any change to a report, a catalog view or the
verify-all JSON fails the suite.  The file is only read.
"""

import hashlib
import json
from pathlib import Path

import pytest

from painleve_cubics.cli import main

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "golden.json")
                    .read_text())["calls"]


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_output_digest(key, capsys):
    code = main(key.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[key]
