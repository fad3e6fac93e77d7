import re
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_walkthrough_runs_and_matches_reference_engine():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "walkthrough.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    dev = re.search(r"max deviation (\S+)", proc.stdout)
    assert dev is not None, proc.stdout
    assert float(dev.group(1)) <= 1e-12
