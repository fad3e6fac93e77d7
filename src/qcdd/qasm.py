"""Parser and printer for a small OpenQASM-2-style circuit format.

Supported statements (one per ``;``, ``//`` comments allowed anywhere):

* ``OPENQASM 2.0;`` header and ``include "...";`` -- accepted and ignored
* a single ``qreg name[n];`` declaration
* gate calls over the fixed kind table with explicit indices, e.g.
  ``h q[0];``, ``rz(pi/4) q[2];``, ``cz q[3],q[1];``
* ``barrier ...;`` -- accepted and ignored

Measurement, classical registers, conditionals, gate definitions, opaque
declarations, and register broadcasts (``h q;``) are rejected.  Angle
expressions may use numbers, ``pi``, ``+ - * /`` and parentheses; division
by zero and non-finite values are rejected.
"""

from __future__ import annotations

import math
import re

from .circuit import GATE_KINDS, Circuit, Gate


class QasmError(Exception):
    """Syntax or validation error, carrying the 1-based source line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_REJECTED = ("measure", "creg", "if", "reset", "gate", "opaque")

_NAME_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*")
_OPERAND_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$")


def _split_call(stmt: str, line: int) -> tuple[str, str | None, str]:
    """Split a gate call into (name, params_text, operand_text)."""
    m = _NAME_RE.match(stmt)
    if not m:
        raise QasmError(f"cannot parse statement {stmt!r}", line)
    name = m.group(1)
    rest = stmt[m.end():]
    params = None
    if rest.startswith("("):
        depth = 0
        for i, ch in enumerate(rest):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    params = rest[1:i]
                    rest = rest[i + 1:]
                    break
        else:
            raise QasmError(f"unbalanced parentheses in {stmt!r}", line)
    return name, params, rest.strip()


def _split_params(text: str) -> list[str]:
    """Split a parameter list on top-level commas."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        cur.append(ch)
    parts.append("".join(cur))
    return parts

_NUM_RE = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")


def _eval_angle(text: str, line: int) -> float:
    """Tiny recursive-descent evaluator for angle expressions."""
    tokens: list[str] = []
    i = 0
    s = text.strip()
    while i < len(s):
        c = s[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/()":
            tokens.append(c)
            i += 1
            continue
        m = _NUM_RE.match(s, i)
        if m:
            tokens.append(m.group(0))
            i = m.end()
            continue
        if s[i : i + 2] == "pi" and not s[i + 2 : i + 3].isalnum():
            tokens.append("pi")
            i += 2
            continue
        raise QasmError(f"bad angle expression {text!r}", line)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def atom() -> float:
        tok = peek()
        if tok is None:
            raise QasmError(f"bad angle expression {text!r}", line)
        if tok == "-":
            take()
            return -atom()
        if tok == "+":
            take()
            return atom()
        if tok == "(":
            take()
            v = expr()
            if peek() != ")":
                raise QasmError(f"unbalanced parentheses in {text!r}", line)
            take()
            return v
        take()
        if tok == "pi":
            return math.pi
        try:
            v = float(tok)
        except ValueError:
            raise QasmError(f"bad angle token {tok!r} in {text!r}", line) from None
        if not math.isfinite(v):
            raise QasmError(f"angle literal {tok!r} overflows in {text!r}", line)
        return v

    def term() -> float:
        v = atom()
        while peek() in ("*", "/"):
            if take() == "*":
                v *= atom()
            else:
                d = atom()
                if d == 0:
                    raise QasmError(f"division by zero in angle expression {text!r}", line)
                v /= d
        return v

    def expr() -> float:
        v = term()
        while peek() in ("+", "-"):
            if take() == "+":
                v += term()
            else:
                v -= term()
        return v

    v = expr()
    if pos != len(tokens):
        raise QasmError(f"trailing tokens in angle expression {text!r}", line)
    if not math.isfinite(v):
        raise QasmError(f"angle expression {text!r} is not finite", line)
    return v


def _statements(source: str):
    """Yield (statement_text, line_number) with comments stripped."""
    buf: list[str] = []
    start_line = 1
    for lineno, raw in enumerate(source.splitlines(), start=1):
        code = raw.split("//", 1)[0]
        for ch in code:
            if ch == ";":
                stmt = "".join(buf).strip()
                if stmt:
                    yield stmt, start_line
                buf = []
                start_line = lineno
            else:
                if not buf:
                    start_line = lineno
                buf.append(ch)
    tail = "".join(buf).strip()
    if tail:
        raise QasmError(f"statement missing terminating ';': {tail!r}", start_line)


def parse(source: str) -> Circuit:
    """Parse the documented subset into a :class:`Circuit`."""
    reg_name: str | None = None
    n = 0
    gates: list[Gate] = []
    for stmt, line in _statements(source):
        word = stmt.split(None, 1)[0].lower() if stmt.split() else ""
        if word == "openqasm":
            continue
        if word == "include":
            continue
        if word == "barrier":
            continue
        if word in _REJECTED:
            raise QasmError(f"unsupported statement {word!r}", line)
        if word == "qreg":
            m = re.match(r"^qreg\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$", stmt)
            if not m:
                raise QasmError(f"malformed qreg declaration {stmt!r}", line)
            if reg_name is not None:
                raise QasmError("only a single qreg declaration is supported", line)
            reg_name = m.group(1)
            n = int(m.group(2))
            if n < 1:
                raise QasmError("qreg must have at least one qubit", line)
            continue
        # Gate call.
        name, params_text, operand_text = _split_call(stmt, line)
        kind = name.lower()
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
            if params_text is None:
                raise QasmError(f"gate {kind!r} needs {n_params} parameter(s)", line)
            parts = _split_params(params_text)
            if len(parts) != n_params:
                raise QasmError(f"gate {kind!r} needs {n_params} parameter(s)", line)
            params = tuple(_eval_angle(p, line) for p in parts)
        args = [a.strip() for a in operand_text.split(",")] if operand_text else []
        want = intrinsic + n_targets
        if len(args) != want:
            raise QasmError(f"gate {kind!r} takes {want} operand(s), got {len(args)}", line)
        idx = []
        for a in args:
            om = _OPERAND_RE.match(a)
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
