"""Capture the golden CLI reports in ``tests/golden/cli.json``.

Re-runs every case already in the file, plus each extra command line given
as an argument, through ``ramseykit.cli.main`` in a scratch directory that
holds the file's input colorings, and rewrites the file with the reports
normalised by :func:`normalise`.  A command line ending in ``--json`` pins
a JSON report, one without ``--json`` the plain-text summary;
``test_json_reports_match_golden_outputs`` and
``test_text_reports_match_golden_outputs`` compare through the same
:func:`capture`, so the two cannot drift.  Run it
at the commit whose outputs are to be pinned, from the repository root::

    PYTHONPATH=src python tests/capture_golden.py "verify --suite formulas --json"
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

GOLDEN_PATH = Path(__file__).parent / "golden" / "cli.json"


def normalise(stdout: str) -> str:
    """Blank the one field that differs between runs, the wall time."""
    return re.sub(r'"wall_time_s": [^\n]*', '"wall_time_s": null', stdout)


def capture(argv: list[str], files: dict[str, str]) -> str:
    from ramseykit.cli import main

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in files.items():
                Path(name).write_text(text)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
        finally:
            os.chdir(cwd)
    if code != 0:
        raise RuntimeError(f"{shlex.join(argv)} exited with {code}")
    return normalise(out.getvalue())


def main(extra: list[str]) -> None:
    golden = json.loads(GOLDEN_PATH.read_text())
    argvs = [case["argv"] for case in golden["cases"]]
    for line in extra:
        argv = shlex.split(line)
        if argv not in argvs:
            argvs.append(argv)
    golden["cases"] = [
        {"argv": argv, "stdout": capture(argv, golden["files"])} for argv in argvs
    ]
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
