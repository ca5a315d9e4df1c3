"""Byte-level gate on the paper's numbers: ``repro report --quick``.

``tests/golden/report_quick.txt`` is the committed output of the quick
report (every registered experiment at its ``--quick`` scale).  Any
change to a scheduler, the simulator or an experiment that moves a
number shows up here as a diff naming the first changed section.  A
change that moves a row on purpose regenerates the file with::

    PYTHONPATH=src python -m repro report --quick --output tests/golden/report_quick.txt

and says which rows moved, and why, in CHANGES.md.
"""

import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "report_quick.txt"


def _section_of(lines: list[str], index: int) -> str:
    """The ``== <id>: … ==`` header the line at ``index`` belongs to."""
    for line in reversed(lines[: index + 1]):
        if line.startswith("== ") and line.endswith(" =="):
            return line
    return "(before the first section)"


def test_quick_report_matches_golden(tmp_path):
    out = tmp_path / "report_quick.txt"
    # A fresh interpreter: the in-process experiment registry can hold
    # ids other tests registered.
    subprocess.run(
        [sys.executable, "-m", "repro", "report", "--quick", "--output", str(out)],
        check=True,
        capture_output=True,
    )
    expected = GOLDEN.read_text().splitlines()
    actual = out.read_text().splitlines()
    if actual == expected and out.read_bytes() == GOLDEN.read_bytes():
        return
    index = next(
        (n for n, (a, b) in enumerate(zip(expected, actual)) if a != b),
        min(len(expected), len(actual)),
    )
    got = actual[index] if index < len(actual) else "<end of report>"
    want = expected[index] if index < len(expected) else "<end of report>"
    raise AssertionError(
        f"quick report differs from {GOLDEN.name} in section "
        f"{_section_of(expected, index)} at line {index + 1}:\n"
        f"  golden: {want}\n  report: {got}"
    )
