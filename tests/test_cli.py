import csv
import json

import numpy as np
import pytest

from qcdd.cli import main
from qcdd.qasm import to_qasm
from qcdd.circuit import Circuit, Gate
from qcdd.hybrid import run_hybrid_amp, run_hybrid_dd
from conftest import FIG_STATE


def write_fig(tmp_path, fig4_qasm):
    path = tmp_path / "fig.qasm"
    path.write_text(fig4_qasm)
    return str(path)


def amp_lines(out):
    rows = {}
    for line in out.strip().splitlines():
        parts = line.split()
        if len(parts) == 3 and set(parts[0]) <= {"0", "1"}:
            rows[parts[0]] = complex(float(parts[1]), float(parts[2]))
    return rows


def test_run_reference_amplitude(tmp_path, fig4_qasm, capsys):
    path = write_fig(tmp_path, fig4_qasm)
    rc = main(["run", path, "--mode", "hybrid-amp", "--amplitudes", "1010"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = amp_lines(out)
    assert abs(rows["1010"] - (-0.25)) < 1e-12


def test_run_empty_circuit(tmp_path, capsys):
    path = tmp_path / "empty4.qasm"
    path.write_text("OPENQASM 2.0;\nqreg q[4];\n")
    rc = main(["run", str(path), "--mode", "schrodinger", "--amplitudes", "0000"])
    out = capsys.readouterr().out
    assert rc == 0
    assert abs(amp_lines(out)["0000"] - 1.0) < 1e-15


@pytest.mark.parametrize("mode", ["schrodinger", "hybrid-dd", "hybrid-amp"])
def test_run_modes_agree_on_reference(tmp_path, fig4_qasm, capsys, mode):
    path = write_fig(tmp_path, fig4_qasm)
    rc = main(["run", path, "--mode", mode, "--amplitudes", "all"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = amp_lines(out)
    assert len(rows) == 16
    got = np.array([rows[format(i, "04b")] for i in range(16)])
    assert np.abs(got - FIG_STATE).max() < 1e-12


def test_run_random_cross_engine(capsys):
    args = ["--random", "8", "10", "5", "0.4"]
    rc = main(["run", *args, "--mode", "hybrid-dd", "--amplitudes", "all"])
    dd_out = capsys.readouterr().out
    assert rc == 0
    rc = main(["run", *args, "--mode", "schrodinger", "--amplitudes", "all"])
    ref_out = capsys.readouterr().out
    assert rc == 0
    a = amp_lines(dd_out)
    b = amp_lines(ref_out)
    assert max(abs(a[k] - b[k]) for k in b) < 1e-9


def test_run_deterministic(capsys):
    args = ["run", "--random", "6", "5", "3", "0.4", "--mode", "hybrid-amp",
            "--amplitudes", "all", "--workers", "2"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_run_stats_json(tmp_path, fig4_qasm, capsys):
    path = write_fig(tmp_path, fig4_qasm)
    rc = main(["run", path, "--mode", "hybrid-amp", "--stats"])
    out = capsys.readouterr().out
    assert rc == 0
    rec = json.loads(out.strip().splitlines()[-1])
    assert rec["mode"] == "hybrid-amp"
    assert rec["path_count"] == 4 and rec["decisions"] == 2


def test_run_stats_json_schrodinger(tmp_path, fig4_qasm, capsys):
    path = write_fig(tmp_path, fig4_qasm)
    rc = main(["run", path, "--mode", "schrodinger", "--stats"])
    out = capsys.readouterr().out
    assert rc == 0
    rec = json.loads(out.strip().splitlines()[-1])
    assert rec["mode"] == "schrodinger"
    assert rec["gates"] == 6 and rec["final_nodes"] == 9
    assert rec["max_nodes"] >= 9


def test_run_out_file(tmp_path, fig4_qasm, capsys):
    path = write_fig(tmp_path, fig4_qasm)
    out_file = tmp_path / "amps.txt"
    rc = main(["run", path, "--amplitudes", "all", "--out", str(out_file)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    rows = amp_lines(out_file.read_text())
    assert len(rows) == 16


def test_run_amplitude_roundtrips_17_digits(tmp_path, capsys):
    qasm = "qreg q[1];\nrz(0.1) q[0];\nh q[0];\n"
    path = tmp_path / "c.qasm"
    path.write_text(qasm)
    rc = main(["run", str(path), "--amplitudes", "all"])
    out = capsys.readouterr().out
    assert rc == 0
    # printed floats parse back to the exact double
    for line in out.strip().splitlines():
        bits, re_s, im_s = line.split()
        assert "%.17g" % float(re_s) == re_s


def test_run_usage_errors(tmp_path, capsys):
    assert main(["run"]) == 2  # no input
    assert main(["run", "--random", "4", "2", "0", "0.5", str(tmp_path / "x.qasm")]) == 2
    assert main(["run", str(tmp_path / "missing.qasm")]) == 2
    bad = tmp_path / "bad.qasm"
    bad.write_text("qreg q[2]; measure q[0];")
    assert main(["run", str(bad)]) == 2
    capsys.readouterr()


def test_run_bad_amplitude_string(tmp_path, fig4_qasm, capsys):
    path = write_fig(tmp_path, fig4_qasm)
    assert main(["run", path, "--amplitudes", "01"]) == 2
    assert main(["run", path, "--amplitudes", "0a10"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "extra",
    [["--mode", "hybrid-amp"], ["--mode", "hybrid-dd", "--amplitudes", "all"]],
    ids=["hybrid-amp", "hybrid-dd"],
)
def test_run_capacity_exit_code(capsys, extra):
    rc = main(["run", "--random", "8", "2", "0", "0.3", "--amp-cap", "6", *extra])
    assert rc == 3
    capsys.readouterr()


def test_run_topology_exit_code(tmp_path, capsys):
    # a cross-cut three-qubit gate only exists programmatically; build via printer
    c = Circuit(4, (Gate("x", controls=(3, 2), targets=(0,)),))
    path = tmp_path / "ccx.qasm"
    path.write_text(to_qasm(c))
    # the parser rejects it (exit 2): multi-controlled gates are not in the subset
    assert main(["run", str(path), "--mode", "hybrid-dd"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("workers", [0, -3])
def test_worker_count_below_one_is_rejected(tmp_path, fig4_qasm, fig4, capsys, workers):
    for run in (run_hybrid_dd, run_hybrid_amp):
        with pytest.raises(ValueError, match="worker"):
            run(fig4, workers=workers)
    path = write_fig(tmp_path, fig4_qasm)
    for cmd in (["run", path, "--mode", "hybrid-dd"], ["run", path, "--mode", "hybrid-amp"],
                ["bench", "--qubits", "4", "--depths", "2", "--seeds", "0"]):
        assert main([*cmd, "--workers", str(workers)]) == 2
        assert "worker" in capsys.readouterr().err


def test_dense_cap_is_a_verify_flag(tmp_path, fig4_qasm, capsys):
    # only verify runs the dense oracle, so only verify takes its cap
    path = write_fig(tmp_path, fig4_qasm)
    assert main(["run", path, "--dense-cap", "3"]) == 2
    assert "--dense-cap" in capsys.readouterr().err
    assert main(["verify", path, "--dense-cap", "3", "--workers", "1"]) == 0
    assert "above dense cap 3" in capsys.readouterr().out


def test_run_invalid_cut(tmp_path, fig4_qasm, capsys):
    path = write_fig(tmp_path, fig4_qasm)
    assert main(["run", path, "--mode", "hybrid-dd", "--cut", "0"]) == 2
    assert main(["run", path, "--mode", "hybrid-dd", "--cut", "4"]) == 2
    capsys.readouterr()


def test_config_file(tmp_path, fig4_qasm, capsys):
    path = write_fig(tmp_path, fig4_qasm)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode=hybrid-amp\nworkers=1\nstats=true\n# comment\n")
    rc = main(["run", path, "--config", str(cfg)])
    out = capsys.readouterr().out
    assert rc == 0
    rec = json.loads(out.strip().splitlines()[-1])
    assert rec["mode"] == "hybrid-amp" and rec["workers"] == 1


@pytest.mark.parametrize("flag", [["--config={cfg}"], ["--conf", "{cfg}"]])
def test_config_file_flag_forms(tmp_path, fig4_qasm, capsys, flag):
    # the path is read from the parsed arguments, so every form argparse
    # accepts loads the file
    path = write_fig(tmp_path, fig4_qasm)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode=hybrid-amp\nworkers=1\nstats=true\n")
    rc = main(["run", path, *(f.format(cfg=cfg) for f in flag)])
    out = capsys.readouterr().out
    assert rc == 0
    rec = json.loads(out.strip().splitlines()[-1])
    assert rec["mode"] == "hybrid-amp" and rec["workers"] == 1


@pytest.mark.parametrize("explicit", [["--amp-cap=10"], ["--amp-cap", "10"], ["--amp-c", "10"]])
def test_config_file_is_overridden_by_explicit_flags(tmp_path, fig4_qasm, capsys, explicit):
    path = write_fig(tmp_path, fig4_qasm)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("amp-cap = 3\nmode = hybrid-amp\nworkers = 1\n")
    assert main(["run", path, "--config", str(cfg), "--amplitudes", "all"]) == 3
    capsys.readouterr()
    rc = main(["run", path, "--config", str(cfg), *explicit, "--amplitudes", "all"])
    out = capsys.readouterr().out
    assert rc == 0
    assert np.abs(np.array(list(amp_lines(out).values())) - FIG_STATE).max() < 1e-12


def test_config_file_false_leaves_switch_off(tmp_path, fig4_qasm, capsys):
    path = write_fig(tmp_path, fig4_qasm)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("stats = false\n")
    assert main(["run", path, "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == ""


def test_bad_config_file(tmp_path, fig4_qasm, capsys):
    path = write_fig(tmp_path, fig4_qasm)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("no equals sign\n")
    assert main(["run", path, "--config", str(cfg)]) == 2
    assert main(["run", path, "--config", str(tmp_path / "missing.cfg")]) == 2
    assert "bad --config" in capsys.readouterr().err


def test_config_file_sets_multi_value_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("random = 4 2 0 0.5\nstats = true\n")
    assert main(["run", "--config", str(cfg)]) == 0
    rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rec["n"] == 4


def test_config_file_abbreviated_multi_value_key(tmp_path, capsys):
    # a key that is a unique prefix names its flag, whose value is then split
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rand = 4 2 0 0.5\nstats = true\n")
    assert main(["run", "--config", str(cfg)]) == 0
    rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rec["n"] == 4
    # a prefix of two flags (--amp-cap, --amplitudes) is still refused
    cfg.write_text("rand = 4 2 0 0.5\nam = 3\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "ambiguous" in capsys.readouterr().err


def test_config_file_single_value_keeps_spaces(tmp_path, fig4_qasm, capsys):
    path = write_fig(tmp_path, fig4_qasm)
    out = tmp_path / "two words.txt"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out = {out}\namplitudes = all\n")
    assert main(["run", path, "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig.qasm", "run.cfg", "two words.txt"]
    assert np.abs(np.array(list(amp_lines(out.read_text()).values())) - FIG_STATE).max() < 1e-12


@pytest.mark.parametrize("expr", ["1/0", "1e400"])
def test_run_bad_angle_is_parse_error(tmp_path, capsys, expr):
    path = tmp_path / "bad.qasm"
    path.write_text(f"qreg q[1];\nrx({expr}) q[0];\n")
    assert main(["run", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_verify_reference(tmp_path, fig4_qasm, capsys):
    path = write_fig(tmp_path, fig4_qasm)
    rc = main(["verify", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 4  # dense + three engines
    assert "FAIL" not in out


def test_verify_sweep_random(capsys):
    for seed in (0, 1, 2):
        rc = main(["verify", "--random", "7", "5", str(seed), "0.3"])
        assert rc == 0
    capsys.readouterr()


def test_verify_failure_exit(capsys):
    rc = main(["verify", "--random", "6", "6", "1", "0.4", "--tol-verify", "1e-30"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "worst offender" in out


def test_verify_topology_skips_hybrid(capsys):
    # a cross-cut three-qubit gate (programmatic; the parse subset cannot
    # express it): hybrid engines report the topology problem and are
    # skipped, dense + schrodinger verification still runs and passes
    from argparse import Namespace
    from qcdd.cli import verify_circuit

    c = Circuit(4, (Gate("h", targets=(0,)), Gate("x", controls=(3, 2), targets=(0,))))
    args = Namespace(cut=None, workers=1, tol=1e-13, amp_cap=30, dense_cap=14,
                     tol_verify=1e-9, check_norms=False)
    rc = verify_circuit(c, args)
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 2
    assert out.count("SKIP") == 2 and "gate 1" in out


def test_verify_one_qubit_circuit_skips_hybrid(tmp_path, capsys):
    path = tmp_path / "one.qasm"
    path.write_text("qreg q[1];\nh q[0];\n")
    rc = main(["verify", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "SKIP" in out and "hybrid-dd" in out


def test_bench_report(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    json_path = tmp_path / "bench.json"
    rc = main([
        "bench", "--qubits", "6", "--depths", "4", "--seeds", "0", "1",
        "--density", "0.4", "--pairing", "any", "--workers", "1",
        "--timeout", "60", "--csv", str(csv_path), "--json", str(json_path),
        "--verify",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    with open(csv_path) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["name", "decisions", "t_ref", "t_DD", "t_ref/t_DD", "t_amp", "t_ref/t_amp"]
    assert len(rows) == 3
    data = json.loads(json_path.read_text())
    assert all(r["agree"] for r in data)
    assert "t_ref/t_amp" in out.splitlines()[0]
