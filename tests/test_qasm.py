import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcdd.circuit import Circuit, Gate, generate_random_circuit
from qcdd.qasm import QasmError, parse, to_qasm


def test_parse_reference_circuit(fig4_qasm, fig4):
    c = parse(fig4_qasm)
    assert c.n == 4
    assert len(c.gates) == 6
    assert c == fig4


def test_parse_empty_circuit():
    c = parse("qreg q[3];")
    assert c.n == 3 and c.gates == ()


def test_header_and_include_optional():
    a = parse('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nh q[0];')
    b = parse("qreg q[1]; h q[0];")
    assert a == b


def test_barrier_ignored():
    c = parse("qreg q[2]; h q[0]; barrier q[0], q[1]; cz q[0],q[1];")
    assert [g.kind for g in c.gates] == ["h", "cz"]


def test_comments_stripped():
    c = parse("// header\nqreg q[1]; // register\nh q[0]; // gate\n")
    assert len(c.gates) == 1


@pytest.mark.parametrize(
    "stmt", ["measure q[0] -> c[0];", "creg c[2];", "if (c==1) x q[0];", "reset q[0];",
             "gate foo a { h a; }", "opaque bar a;"]
)
def test_rejected_statements(stmt):
    with pytest.raises(QasmError):
        parse(f"qreg q[2];\n{stmt}\n")


def test_rejected_statement_reports_line():
    with pytest.raises(QasmError) as err:
        parse("qreg q[2];\nh q[0];\nmeasure q[0] -> c[0];\n")
    assert err.value.line == 3


def test_multi_controlled_rejected():
    with pytest.raises(QasmError, match="multi-controlled"):
        parse("qreg q[3]; ccx q[0],q[1],q[2];")


def test_register_broadcast_rejected():
    with pytest.raises(QasmError, match="broadcast"):
        parse("qreg q[2]; h q;")


def test_index_out_of_range():
    with pytest.raises(QasmError, match="out of range"):
        parse("qreg q[2]; h q[2];")


def test_unknown_register():
    with pytest.raises(QasmError, match="unknown register"):
        parse("qreg q[2]; h r[0];")


def test_double_register_rejected():
    with pytest.raises(QasmError, match="single qreg"):
        parse("qreg q[2]; qreg r[2];")


def test_gate_before_register():
    with pytest.raises(QasmError):
        parse("h q[0]; qreg q[2];")


def test_missing_semicolon():
    with pytest.raises(QasmError, match="';'"):
        parse("qreg q[2]; h q[0]")


def test_param_arity_checked():
    with pytest.raises(QasmError):
        parse("qreg q[1]; rz q[0];")
    with pytest.raises(QasmError):
        parse("qreg q[1]; rz(1,2) q[0];")
    with pytest.raises(QasmError):
        parse("qreg q[1]; h(0.2) q[0];")


def test_operand_arity_checked():
    with pytest.raises(QasmError):
        parse("qreg q[2]; cz q[0];")
    with pytest.raises(QasmError):
        parse("qreg q[2]; h q[0],q[1];")


def test_angle_expressions():
    c = parse(
        "qreg q[1];\n"
        "rz(pi/4) q[0];\n"
        "rz(-pi) q[0];\n"
        "rz(2*pi) q[0];\n"
        "p((pi+1)/2) q[0];\n"
        "rx(0.25e1) q[0];\n"
        "ry(.5) q[0];\n"
    )
    got = [g.params[0] for g in c.gates]
    want = [math.pi / 4, -math.pi, 2 * math.pi, (math.pi + 1) / 2, 2.5, 0.5]
    assert got == pytest.approx(want)


def test_bad_angle_expression():
    for expr in ("pi/", "(pi", "1..2", "q", "pi pi"):
        with pytest.raises(QasmError):
            parse(f"qreg q[1]; rz({expr}) q[0];")


@pytest.mark.parametrize("expr", ["1/0", "pi/(1-1)", "2/0.0"])
def test_angle_division_by_zero_reports_line(expr):
    with pytest.raises(QasmError, match="division by zero") as err:
        parse(f"qreg q[1];\nh q[0];\nrx({expr}) q[0];\n")
    assert err.value.line == 3


@pytest.mark.parametrize("expr", ["1e400", "-1e400", "1/1e400", "1e200*1e200"])
def test_non_finite_angle_reports_line(expr):
    with pytest.raises(QasmError) as err:
        parse(f"qreg q[1];\nrx({expr}) q[0];\n")
    assert err.value.line == 2


def test_printer_output_shape():
    c = Circuit(2, (Gate("rz", (math.pi / 4,), (), (0,)), Gate("cz", (), (1,), (0,))))
    text = to_qasm(c)
    lines = text.strip().splitlines()
    assert lines[0] == "OPENQASM 2.0;"
    assert lines[1] == "qreg q[2];"
    assert lines[2].startswith("rz(") and lines[2].endswith(" q[0];")
    assert lines[3] == "cz q[1],q[0];"


def test_roundtrip_reference(fig4):
    assert parse(to_qasm(fig4)) == fig4


@given(st.integers(0, 10_000), st.integers(2, 8), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_roundtrip_generated(seed, n, depth):
    c = generate_random_circuit(n, depth, seed, 0.4)
    assert parse(to_qasm(c)) == c


@given(st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_roundtrip_angles(angles):
    gates = tuple(Gate("rz", (a,), (), (0,)) for a in angles)
    c = Circuit(1, gates)
    assert parse(to_qasm(c)) == c
