"""``domchrom verify`` output, byte for byte, against the captures in ``tests/golden``.

Each capture is the stdout of ``domchrom verify <args>``.  Regenerate a
capture the same way only when a change of output is intended.
"""

import io
from pathlib import Path

import pytest

from domchrom.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("verify_n5_t12346.json", ["--n-max", "5", "--theorems", "1,2,3,4,6", "--format", "json"]),
    ("verify_n4.text", ["--n-max", "4", "--format", "text"]),
    ("verify_n4.json", ["--n-max", "4", "--format", "json"]),
    ("verify_n4.csv", ["--n-max", "4", "--format", "csv"]),
]


@pytest.mark.parametrize("name,args", CASES, ids=[name for name, _ in CASES])
def test_verify_output_matches_golden(name, args):
    out = io.StringIO()
    code = main(["verify", *args], stdout=out, stderr=io.StringIO())
    assert code == 0
    assert out.getvalue().encode("ascii") == (GOLDEN / name).read_bytes()
