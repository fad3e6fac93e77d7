import csv
import io
import json
import os
import signal

import pytest

from qcdd.bench import COLUMNS, _run_timed, run_bench, write_csv, write_json
from qcdd.hybrid import Partition, classify
from qcdd.circuit import generate_random_circuit


def test_bench_rows_and_reports():
    rows = run_bench([5], [3], [0, 1], density=0.3, pairing="any", workers=1,
                     timeout=120, verify=True)
    assert len(rows) == 2
    for row in rows:
        c = generate_random_circuit(row.n, row.depth, row.seed, 0.3)
        expect = len(classify(c, Partition(row.n // 2)).decisions)
        assert row.decisions == expect
        assert row.agree is True
        assert row.t_ref > 0 and row.t_dd > 0 and row.t_amp > 0
    buf = io.StringIO()
    write_csv(rows, buf)
    table = list(csv.reader(io.StringIO(buf.getvalue())))
    assert table[0] == COLUMNS
    assert len(table) == 3
    buf = io.StringIO()
    write_json(rows, buf)
    data = json.loads(buf.getvalue())
    assert data[0]["name"] == rows[0].name
    assert float(data[0]["t_ref/t_amp"]) > 0


def test_bench_timeout_marks_rows():
    rows = run_bench([8], [6], [0], density=0.5, pairing="any", workers=1,
                     timeout=1e-4)
    row = rows[0]
    assert row.t_ref is None and row.t_dd is None and row.t_amp is None
    cells = dict(zip(COLUMNS, row.cells()))
    for col in ("t_ref", "t_DD", "t_amp"):
        assert cells[col].startswith(">")
    assert cells["t_ref/t_DD"] == "---"
    assert cells["t_ref/t_amp"] == "---"


@pytest.mark.parametrize("workers", [0, -3])
def test_bench_worker_count_below_one_is_rejected(workers):
    with pytest.raises(ValueError, match="at least one worker"):
        run_bench([4], [2], [0], workers=workers, timeout=60)


def test_bench_engine_death_names_exit_code():
    with pytest.raises(RuntimeError, match=r"died without reporting \(exit code -9\)"):
        _run_timed(lambda: os.kill(os.getpid(), signal.SIGKILL), 30)
