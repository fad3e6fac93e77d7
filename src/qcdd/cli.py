"""Command-line frontend.

Subcommands:

* ``run``    -- simulate a circuit with one engine and print amplitudes/stats
* ``verify`` -- run every applicable engine plus the dense oracle and compare
* ``bench``  -- time the engines over a generated circuit family (CSV/JSON)

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 capacity or topology error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .circuit import CapacityError, Circuit, dense_simulate, generate_random_circuit
from .dd import EXTRACT_CAP, Package
from .hybrid import (
    STATS_SCHEMA, Partition, TopologyError, run_hybrid_amp, run_hybrid_dd, usable_cpus,
)
from .qasm import QasmError, parse
from .schrodinger import simulate
from .weights import DEFAULT_TOL, check_tolerance
from . import bench as bench_mod

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3


def _fmt(x: float) -> str:
    return "%.17g" % x


def worker_count(text: str) -> int:
    """Argument type of a ``--workers`` flag: an integer of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"need at least one worker, got {n}")
    return n


def tolerance(text: str) -> float:
    """Argument type of a ``--tol`` flag: a float strictly between 0 and 1."""
    try:
        return check_tolerance(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def deviation_bound(text: str) -> float:
    """Argument type of ``--tol-verify``: a finite float of at least 0."""
    bound = float(text)
    if not 0 <= bound < math.inf:
        raise argparse.ArgumentTypeError(f"need a finite bound of at least 0, got {text}")
    return bound


def _load_config(path: str) -> dict[str, str]:
    out = {}
    with open(path) as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {raw.strip()!r}")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _build_parser() -> tuple[argparse.ArgumentParser, argparse.Action]:
    top = argparse.ArgumentParser(prog="qcdd", description=__doc__.split("\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    def add_circuit_args(p):
        p.add_argument("input", nargs="?", help="circuit file (.qasm subset)")
        p.add_argument(
            "--random",
            nargs=4,
            metavar=("N", "DEPTH", "SEED", "DENSITY"),
            help="generate a random circuit instead of reading a file",
        )
        p.add_argument("--pairing", choices=("any", "grid"), default="any",
                       help="pair selection for --random CZ layers")
        p.add_argument("--cut", type=int, default=None,
                       help="cut position (lower block = qubits 0..cut-1); default n//2")
        p.add_argument("--workers", type=worker_count, default=None,
                       help="worker processes for the hybrid engines, at least 1"
                            " (default: the CPUs this process may run on)")
        p.add_argument("--tol", type=tolerance, default=DEFAULT_TOL,
                       help="weight canonicalization tolerance, between 0 and 1")
        p.add_argument("--amp-cap", type=int, default=EXTRACT_CAP,
                       help="max qubits for dense extraction; in hybrid-amp mode also the"
                            " log2 of the block-row amplitudes of all paths")
        p.add_argument("--config", help="key=value file of defaults; command-line flags win")

    run_p = sub.add_parser("run", help="simulate with one engine")
    add_circuit_args(run_p)
    run_p.add_argument("--mode", choices=("schrodinger", "hybrid-dd", "hybrid-amp"),
                       default="schrodinger")
    run_p.add_argument("--amplitudes", default=None,
                       help="'all' or comma-separated basis bitstrings (q_{n-1}..q_0)")
    run_p.add_argument("--stats", action="store_true", help="print a JSON statistics record")
    run_p.add_argument("--out", default=None, help="write amplitude lines to this file")
    run_p.add_argument("--check-norms", action="store_true",
                       help="assert norm 1 after every unitary gate")

    ver_p = sub.add_parser("verify", help="cross-check all engines and the oracle")
    add_circuit_args(ver_p)
    ver_p.add_argument("--dense-cap", type=int, default=14, help="max qubits for the dense oracle")
    ver_p.add_argument("--tol-verify", type=deviation_bound, default=1e-9,
                       help="max allowed elementwise deviation")

    ben_p = sub.add_parser("bench", help="time engines over a circuit family")
    ben_p.add_argument("--qubits", type=int, nargs="+", default=[12, 16])
    ben_p.add_argument("--depths", type=int, nargs="+", default=[8, 12])
    ben_p.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ben_p.add_argument("--density", type=float, default=0.5)
    ben_p.add_argument("--pairing", choices=("any", "grid"), default="grid")
    ben_p.add_argument("--workers", type=worker_count, default=None)
    ben_p.add_argument("--tol", type=tolerance, default=DEFAULT_TOL)
    ben_p.add_argument("--timeout", type=float, default=300.0,
                       help="per-engine-run timeout in seconds")
    ben_p.add_argument("--csv", default=None, help="write the report table to this CSV file")
    ben_p.add_argument("--json", dest="json_out", default=None, help="write the report to JSON")
    ben_p.add_argument("--verify", action="store_true",
                       help="also cross-check engine outputs where feasible")
    return top, sub


def _get_circuit(args) -> Circuit:
    if args.random is not None:
        if args.input is not None:
            raise UsageError("give either an input file or --random, not both")
        n, depth, seed = (int(x) for x in args.random[:3])
        density = float(args.random[3])
        return generate_random_circuit(n, depth, seed, density, args.pairing)
    if args.input is None:
        raise UsageError("need an input file or --random")
    try:
        with open(args.input) as f:
            text = f.read()
    except OSError as exc:
        raise UsageError(f"cannot read {args.input}: {exc}") from None
    return parse(text)


class UsageError(Exception):
    pass


def _run_engine(args, circuit: Circuit, mode: str):
    """Returns (amplitude_getter, full_vector_getter, stats_record)."""
    workers = args.workers if args.workers is not None else usable_cpus()
    check = getattr(args, "check_norms", False)
    if mode == "schrodinger":
        pkg = Package(args.tol, extract_cap=args.amp_cap)
        t0 = time.perf_counter()
        edge = simulate(circuit, pkg, check_norm=check)
        wall = time.perf_counter() - t0
        record = {
            "schema": STATS_SCHEMA,
            "mode": "schrodinger",
            "n": circuit.n,
            "gates": len(circuit.gates),
            "workers": 1,
            "times": {"simulate": wall, "total": wall},
            "max_nodes": pkg.peak_nodes,
            "final_nodes": pkg.count_nodes(edge),
        }
        return (lambda bits: pkg.get_amplitude(edge, bits),
                lambda: pkg.extract_statevector(edge, circuit.n),
                record)
    partition = Partition(args.cut) if args.cut is not None else None
    if mode == "hybrid-dd":
        res = run_hybrid_dd(circuit, partition, workers=workers, tol=args.tol,
                            amp_cap=args.amp_cap, check_norm=check)
        pkg, edge = res.package, res.state
        return (lambda bits: pkg.get_amplitude(edge, bits),
                lambda: pkg.extract_statevector(edge, circuit.n),
                res.stats)
    res = run_hybrid_amp(circuit, partition, workers=workers, tol=args.tol,
                         amp_cap=args.amp_cap, check_norm=check)
    vec = res.vector
    return (lambda bits: complex(vec[int(bits, 2)])), (lambda: vec), res.stats


def _cmd_run(args) -> int:
    circuit = _get_circuit(args)
    amp_of, vec_of, record = _run_engine(args, circuit, args.mode)
    lines = []
    if args.amplitudes:
        if args.amplitudes == "all":
            vec = vec_of()
            for i, a in enumerate(vec):
                bits = format(i, f"0{circuit.n}b")
                lines.append(f"{bits} {_fmt(a.real)} {_fmt(a.imag)}")
        else:
            for bits in args.amplitudes.split(","):
                bits = bits.strip()
                if len(bits) != circuit.n or set(bits) - {"0", "1"}:
                    raise UsageError(f"bad basis string {bits!r} for n={circuit.n}")
                a = amp_of(bits)
                lines.append(f"{bits} {_fmt(a.real)} {_fmt(a.imag)}")
    if args.out:
        with open(args.out, "w") as f:
            f.write("\n".join(lines) + ("\n" if lines else ""))
    else:
        for line in lines:
            print(line)
    if args.stats:
        print(json.dumps(record))
    return EXIT_OK


def _cmd_verify(args) -> int:
    return verify_circuit(_get_circuit(args), args)


def verify_circuit(circuit: Circuit, args) -> int:
    """Run every applicable engine plus the oracle, print a report, and
    return the exit code (0 = all within --tol-verify)."""
    n = circuit.n
    results: dict[str, np.ndarray] = {}
    skipped: dict[str, str] = {}
    if n <= args.dense_cap:
        results["dense"] = dense_simulate(circuit, cap=args.dense_cap)
    else:
        skipped["dense"] = f"n={n} above dense cap {args.dense_cap}"
    _, vec_of, _ = _run_engine(args, circuit, "schrodinger")
    results["schrodinger"] = vec_of()
    if n >= 2:
        for mode in ("hybrid-dd", "hybrid-amp"):
            try:
                _, vec_of, _ = _run_engine(args, circuit, mode)
                results[mode] = vec_of()
            except (TopologyError, CapacityError) as exc:
                skipped[mode] = str(exc)
    else:
        skipped["hybrid-dd"] = skipped["hybrid-amp"] = "cannot cut a 1-qubit register"
    ref_name = "dense" if "dense" in results else "schrodinger"
    ref = results[ref_name]
    failed = []  # (max deviation, engine, basis index) of each engine that fails
    for name, vec in results.items():
        dev = np.abs(vec - ref)
        max_dev = float(dev.max()) if len(dev) else 0.0
        fid = abs(np.vdot(ref, vec)) / (np.linalg.norm(ref) * np.linalg.norm(vec) or 1.0)
        # a NaN deviation, or a NaN bound, fails: every comparison with NaN is false
        passed = max_dev <= args.tol_verify
        if not passed:
            failed.append((max_dev, name, int(dev.argmax())))
        status = "PASS" if passed else "FAIL"
        print(f"{status} {name:>12s}: max deviation {max_dev:.3e}  fidelity {fid:.12f}  (vs {ref_name})")
    for name, reason in skipped.items():
        print(f"SKIP {name:>12s}: {reason}")
    if failed:
        dev, name, index = max(failed, key=lambda f: math.inf if math.isnan(f[0]) else f[0])
        bits = format(index, f"0{n}b")
        print(f"worst offender: engine {name}, basis |{bits}>, deviation {dev:.3e}")
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_bench(args) -> int:
    rows = bench_mod.run_bench(
        args.qubits,
        args.depths,
        args.seeds,
        density=args.density,
        pairing=args.pairing,
        workers=args.workers,
        timeout=args.timeout,
        tol=args.tol,
        verify=args.verify,
    )
    widths = [max(len(c), 10) for c in bench_mod.COLUMNS]
    print("  ".join(c.rjust(w) for c, w in zip(bench_mod.COLUMNS, widths)))
    for row in rows:
        print("  ".join(c.rjust(w) for c, w in zip(row.cells(), widths)))
        if row.agree is False:
            print(f"WARNING: engines disagree on {row.name}", file=sys.stderr)
    if args.csv:
        with open(args.csv, "w", newline="") as f:
            bench_mod.write_csv(rows, f)
    if args.json_out:
        with open(args.json_out, "w") as f:
            bench_mod.write_json(rows, f)
    return EXIT_OK


def main(argv=None) -> int:
    parser, subparsers = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # the file's entries go first, so a flag given on the line wins
            try:
                cfg = _load_config(args.config)
            except (OSError, ValueError) as exc:
                print(f"error: bad --config: {exc}", file=sys.stderr)
                return EXIT_USAGE
            actions = subparsers.choices[args.command]._option_string_actions
            flags = []
            for key, val in cfg.items():
                flag = "--" + key.replace("_", "-")
                # an abbreviated key names the one flag it is a prefix of,
                # as on the command line
                action = actions.get(flag)
                if action is None:
                    found = {a for opt, a in actions.items() if opt.startswith(flag)}
                    action = found.pop() if len(found) == 1 else None
                nargs = getattr(action, "nargs", None)
                if val.lower() == "true":
                    flags.append(flag)
                elif val.lower() != "false":
                    # only a flag taking several values has its value split
                    several = nargs in ("+", "*") or isinstance(nargs, int) and nargs > 1
                    flags.extend([flag, *val.split()] if several else [flag, val])
            args = parser.parse_args([argv[0], *flags, *argv[1:]])
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_bench(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QasmError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CapacityError, TopologyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
