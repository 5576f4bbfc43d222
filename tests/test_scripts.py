"""The scripts under ``scripts/`` run end to end."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_genus_survey_identifies_both_constructions():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "genus_survey.py"), "--max-genus", "1"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert [row[:2] for row in rows] == [["0", "johns"], ["0", "ishikawa"], ["1", "johns"], ["1", "ishikawa"]]
    assert [row[-2] for row in rows if row[1] == "johns"] == ["yes+", "yes+"]
