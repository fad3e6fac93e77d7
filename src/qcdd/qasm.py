"""Parser and printer for a small OpenQASM-2-style circuit format.

Supported statements (one per ``;``, ``//`` comments allowed anywhere):

* ``OPENQASM 2.0;`` header and ``include "...";`` -- accepted and ignored
* a single ``qreg name[n];`` declaration
* gate calls over the fixed kind table with explicit indices, e.g.
  ``h q[0];``, ``rz(pi/4) q[2];``, ``cz q[3],q[1];``
* ``barrier ...;`` -- accepted and ignored

Measurement, classical registers, conditionals, gate definitions, opaque
declarations, and register broadcasts (``h q;``) are rejected.  Angle
expressions may use decimal numbers, ``pi``, unary ``+``/``-``, binary
``+ - * /`` and parentheses; they are read by Python's own parser behind a
character whitelist.  Division by zero and non-finite values are rejected.
"""

from __future__ import annotations

import ast
import math
import operator
import re

from .circuit import GATE_KINDS, Circuit, Gate


class QasmError(Exception):
    """Syntax or validation error, carrying the 1-based source line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_REJECTED = ("measure", "creg", "if", "reset", "gate", "opaque")

# Comments are cut first; a statement runs from its first non-blank
# character to the next ';' (group 1 is empty when the source ends first).
_COMMENT_RE = re.compile(r"//.*")
_STMT_RE = re.compile(r"[^;\s][^;]*(;?)")
# name, optional parenthesized parameter text (up to the last ')'), operands
_CALL_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*(?:\((.*)\))?\s*(.*)", re.S)
_OPERAND_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]")
# Python reads more number forms than the grammar allows (0x10, 1_0, 1j) and
# more names than pi; only these characters may reach ``ast.parse``.
_ANGLE_CHARS_RE = re.compile(r"[0-9.eEpi+\-*/(),\s]*")
_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}


def _angle(node: ast.expr, text: str, line: int) -> float:
    """Value of one angle expression tree; every node's value must be finite."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        try:
            v = float(node.value)
        except OverflowError:
            v = math.inf
    elif isinstance(node, ast.Name) and node.id == "pi":
        v = math.pi
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        v = _angle(node.operand, text, line)
        if isinstance(node.op, ast.USub):
            v = -v
    elif isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        a = _angle(node.left, text, line)
        b = _angle(node.right, text, line)
        if isinstance(node.op, ast.Div) and b == 0:
            raise QasmError(f"division by zero in angle expression {text!r}", line)
        v = _BINOPS[type(node.op)](a, b)
    else:
        raise QasmError(f"bad angle expression {text!r}", line)
    if not math.isfinite(v):
        raise QasmError(f"angle expression {text!r} is not finite", line)
    return v


def _angles(text: str, line: int) -> tuple[float, ...]:
    """Evaluate a comma-separated list of angle expressions."""
    if not _ANGLE_CHARS_RE.fullmatch(text):
        raise QasmError(f"bad angle expression {text!r}", line)
    try:
        body = ast.parse(f"({text},)", mode="eval").body
        # a ')' in the text can close the wrapper early: "(pi)(2" is a call
        if not isinstance(body, ast.Tuple):
            raise QasmError(f"bad angle expression {text!r}", line)
        return tuple(_angle(e, text, line) for e in body.elts)
    except (SyntaxError, RecursionError):
        raise QasmError(f"bad angle expression {text!r}", line) from None


def _statements(source: str):
    """Yield (statement_text, line of its first character), comments stripped."""
    code = _COMMENT_RE.sub("", source)
    line, pos = 1, 0
    for m in _STMT_RE.finditer(code):
        line += code.count("\n", pos, m.start())
        pos = m.start()
        if not m.group(1):
            raise QasmError(f"statement missing terminating ';': {m.group(0).rstrip()!r}", line)
        yield m.group(0)[:-1].rstrip(), line


def parse(source: str) -> Circuit:
    """Parse the documented subset into a :class:`Circuit`."""
    reg_name: str | None = None
    n = 0
    gates: list[Gate] = []
    for stmt, line in _statements(source):
        m = _CALL_RE.fullmatch(stmt)
        if not m:
            raise QasmError(f"cannot parse statement {stmt!r}", line)
        kind, params_text, operand_text = m.group(1).lower(), m.group(2), m.group(3)
        if kind in ("openqasm", "include", "barrier"):
            continue
        if kind in _REJECTED:
            raise QasmError(f"unsupported statement {kind!r}", line)
        if kind == "qreg":
            om = _OPERAND_RE.fullmatch(operand_text)
            if params_text is not None or not om:
                raise QasmError(f"malformed qreg declaration {stmt!r}", line)
            if reg_name is not None:
                raise QasmError("only a single qreg declaration is supported", line)
            reg_name = om.group(1)
            n = int(om.group(2))
            if n < 1:
                raise QasmError("qreg must have at least one qubit", line)
            continue
        if kind not in GATE_KINDS:
            if re.fullmatch(r"c+[a-z]+", kind) and kind.lstrip("c") in GATE_KINDS:
                raise QasmError(f"multi-controlled gate {kind!r} is not supported", line)
            raise QasmError(f"unsupported gate {kind!r}", line)
        if reg_name is None:
            raise QasmError("gate call before qreg declaration", line)
        n_params, intrinsic, n_targets = GATE_KINDS[kind]
        if n_params == 0:
            if params_text not in (None, ""):
                raise QasmError(f"gate {kind!r} takes no parameters", line)
            params: tuple[float, ...] = ()
        else:
            params = _angles(params_text, line) if params_text is not None else ()
            if len(params) != n_params:
                raise QasmError(f"gate {kind!r} needs {n_params} parameter(s)", line)
        args = [a.strip() for a in operand_text.split(",")] if operand_text else []
        want = intrinsic + n_targets
        if len(args) != want:
            raise QasmError(f"gate {kind!r} takes {want} operand(s), got {len(args)}", line)
        idx = []
        for a in args:
            om = _OPERAND_RE.fullmatch(a)
            if not om:
                raise QasmError(f"bad operand {a!r} (register broadcast unsupported)", line)
            if om.group(1) != reg_name:
                raise QasmError(f"unknown register {om.group(1)!r}", line)
            q = int(om.group(2))
            if q >= n:
                raise QasmError(f"qubit index {q} out of range for qreg[{n}]", line)
            idx.append(q)
        try:
            gates.append(
                Gate(kind, params, tuple(idx[:intrinsic]), tuple(idx[intrinsic:]))
            )
        except ValueError as exc:
            raise QasmError(str(exc), line) from None
    if reg_name is None:
        raise QasmError("missing qreg declaration", 1)
    return Circuit(n, tuple(gates))


def to_qasm(circuit: Circuit) -> str:
    """Print a circuit in the same subset, one statement per line.

    Angles are written with 17 significant digits so parse(to_qasm(c)) == c.
    Gates with extra programmatic controls print with a 'c' prefix per control
    and fall outside the parse subset.
    """
    lines = ["OPENQASM 2.0;", f"qreg q[{circuit.n}];"]
    for g in circuit.gates:
        _, intrinsic, _ = GATE_KINDS[g.kind]
        name = "c" * (len(g.controls) - intrinsic) + g.kind
        if g.params:
            name += "(" + ",".join("%.17g" % p for p in g.params) + ")"
        ops = ",".join(f"q[{q}]" for q in g.qubits)
        lines.append(f"{name} {ops};")
    return "\n".join(lines) + "\n"
