import math
import operator

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


@pytest.mark.parametrize("source, line", [
    ("qreg q[1];\nh q[0]; // note\n\nrx(1/0) q[0];", 4),
    ("qreg q[1];\nh q[0]; \nmeasure q[0] -> c[0];", 3),
    ("qreg q[1];\nh q[0];\n\n  h q[0]", 4),
], ids=["after_comment_and_blank", "after_trailing_blank", "missing_semicolon"])
def test_error_line_is_first_character_of_statement(source, line):
    with pytest.raises(QasmError) as err:
        parse(source)
    assert err.value.line == line


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


@st.composite
def _literal(draw):
    """A decimal literal (``5``, ``5.``, ``.5``, ``5.25``, optional exponent)
    and its value; a literal past the float range has value None."""
    whole = str(draw(st.integers(0, 10**6)))
    frac = draw(st.text("0123456789", min_size=1, max_size=4))
    text = draw(st.sampled_from([whole, whole + ".", "." + frac, whole + "." + frac]))
    if draw(st.booleans()):
        text += "e" + draw(st.sampled_from(["", "+", "-"])) + str(draw(st.integers(0, 400)))
    v = float(text)
    return text, v if math.isfinite(v) else None


def _unary(child):
    return st.tuples(st.sampled_from("+-"), child).map(
        lambda t: (t[0] + t[1][0], None if t[1][1] is None else (-t[1][1] if t[0] == "-" else t[1][1]))
    )


def _apply(op, a, b):
    if a is None or b is None or (op == "/" and b == 0):
        return None
    v = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}[op](a, b)
    return v if math.isfinite(v) else None


def _binary(child):
    return st.tuples(child, st.sampled_from("+-*/"), st.sampled_from(["", " "]), child).map(
        lambda t: (f"({t[0][0]}{t[2]}{t[1]}{t[2]}{t[3][0]})", _apply(t[1], t[0][1], t[3][1]))
    )


_EXPR = st.recursive(
    st.one_of(_literal(), st.just(("pi", math.pi))),
    lambda child: st.one_of(_unary(child), _binary(child)),
    max_leaves=12,
)


@given(_EXPR)
@settings(max_examples=300, deadline=None)
def test_angle_expression_trees(expr):
    # the expected value comes from the same float operations in the same
    # order; a tree that divides by zero or leaves the float range anywhere
    # must be rejected
    text, value = expr
    source = f"qreg q[1];\nrz({text}) q[0];\n"
    if value is None:
        with pytest.raises(QasmError) as err:
            parse(source)
        assert err.value.line == 2
    else:
        assert parse(source).gates[0].params == (value,)


@pytest.mark.parametrize("expr, value", [
    ("0x10", None), ("1_0", None), ("1j", None), ("True", None), ("pi**2", None),
    ("(pi)(2", None), ("abs(1)", None), ("[1]", None),
    ("(" * 300 + "1" + ")" * 300, 1.0), ("+".join(["1"] * 5000), 5000.0),
], ids=["hex", "underscore", "imaginary", "bool", "power", "call_after_paren", "call",
        "list", "nested_300", "chain_5000"])
def test_python_only_angle_forms(expr, value):
    # each form either parses to its value or raises QasmError with the
    # line; no other exception type may escape
    try:
        c = parse(f"qreg q[1];\nh q[0];\nrz({expr}) q[0];\n")
    except QasmError as err:
        assert err.line == 3
    else:
        assert value is not None and c.gates[-1].params == (value,)


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
