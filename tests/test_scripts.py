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


def test_bench_trend_smoke():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "bench_trend.py"), "--qubits", "6", "--depth", "3",
         "--instances", "1", "--min-decisions", "0", "--max-decisions", "3", "--workers", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    header = next(i for i, line in enumerate(lines) if line.split()[:2] == ["name", "decisions"])
    assert lines[header + 1].split()[0].startswith("rand_6q_d3_s")
