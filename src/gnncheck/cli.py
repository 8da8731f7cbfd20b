"""Command-line interface: verify, sat, compile, eval, oracle, fuzz.

Exit codes: 0 valid/sat/all-agree, 1 invalid/unsat/disagreement, 2 usage or
input errors, 3 unknown (limits hit).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .arith import ACTIVATIONS, ArithmeticSpec
from .compile import compile_lvp
from .errors import GnnCheckError, SchemaError, UsageError
from .formula import parse as parse_formula
from .formula import to_text
from .fuzz import run_differential
from .gnn import DeltaMode, LvpInstance, gnn_from_json, gnn_eval, lvp_from_json
from .graph import PointedGraph, _expect
from .graph import load_json as graph_from_json
from .graph import save_json as graph_to_json
from .graph import to_dot
from .semantics import ORACLE_STEPS, Sat, Unsat, brute_force_sat
from .tableau import Invalid, SolveLimits, Valid, solve, verify_lvp

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3


def _time_limit(args) -> float | None:
    """--time-limit, else the QGNN_TIME_LIMIT environment variable, else none.

    NaN and negative values are refused: a NaN deadline never passes, so it
    would turn the limit off.
    """
    if args.time_limit is not None:
        source, value = "--time-limit", args.time_limit
    else:
        env = os.environ.get("QGNN_TIME_LIMIT")
        if not env:
            return None
        source = "QGNN_TIME_LIMIT"
        try:
            value = float(env)
        except ValueError:
            raise UsageError(f"QGNN_TIME_LIMIT is not a number: {env!r}") from None
    if not value >= 0:
        raise UsageError(f"{source} must be a non-negative number of seconds, got {value!r}")
    return value


def _limits(args) -> SolveLimits:
    return SolveLimits(time_limit=_time_limit(args), max_terms=args.term_limit)


@contextlib.contextmanager
def _file(path: str, mode: str = "r"):
    """The file, open as UTF-8 text.  One that cannot be opened, read or
    written (a directory, a missing directory), or is not UTF-8, is an input
    error (exit 2), never a verdict's exit code."""
    try:
        with open(path, mode, encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise GnnCheckError(f"cannot {'read' if mode == 'r' else 'write'} {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise GnnCheckError(f"{path} is not UTF-8 text: {exc}") from None


def _load_doc(path: str) -> dict:
    """The JSON object in the file; every document the CLI reads is one."""
    with _file(path) as handle:
        text = handle.read()
    try:
        doc = json.loads(text)
    except ValueError as exc:  # bad JSON, or an int past the digit limit
        raise GnnCheckError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("expected an object", "$")
    return doc


def _read_formula(args):
    spec = ArithmeticSpec.parse(args.arith)
    text = args.formula
    if os.path.exists(text):
        with _file(text) as handle:
            text = handle.read()
    return parse_formula(text, spec, default_activation=args.alpha)


def _print_graph(graph, point, out):
    for node in graph.nodes:
        label = " ".join(f"{f}={graph.spec.format_payload(graph.labels[node][f])}" for f in graph.features)
        marker = " <- point" if node == point else ""
        print(f"  {node}: {label}{marker}", file=out)
    if graph.edges:
        print("  edges: " + ", ".join(f"{s}->{t}" for s, t in graph.edges), file=out)


def _emit_dot(args, graph, point):
    if getattr(args, "emit_dot", None):
        with _file(args.emit_dot, "w") as handle:
            handle.write(to_dot(graph, point))


def _sat_result(args, verdict) -> int:
    as_json = args.output == "json"
    if isinstance(verdict, Sat):
        model = verdict.model
        _emit_dot(args, model.graph, model.point)
        if as_json:
            print(json.dumps({"verdict": "sat", "model": graph_to_json(model.graph, model.point)}))
        else:
            print("sat")
            _print_graph(model.graph, model.point, sys.stdout)
        return EXIT_POSITIVE
    if isinstance(verdict, Unsat):
        print(json.dumps({"verdict": "unsat"}) if as_json else "unsat")
        return EXIT_NEGATIVE
    print(json.dumps({"verdict": "unknown", "reason": verdict.reason}) if as_json else f"unknown ({verdict.reason})")
    return EXIT_UNKNOWN


def _load_instance(args) -> LvpInstance:
    """The LVP instance of the document, with --arith and (verify's)
    --delta in place of its own.  Each flag is parsed before it is written
    into the document, so a bad one is reported as a bad flag, with no
    JSON path."""
    doc = _load_doc(args.instance)
    if args.arith:
        spec = ArithmeticSpec.parse(args.arith)
        _expect(doc, "gnn", dict, "$")["arith"] = spec.spec_string()
    if getattr(args, "delta", None):
        mode = DeltaMode.parse(args.delta)
        doc["delta"] = {"mode": mode.kind} | ({} if mode.value is None else {"value": mode.value})
    return lvp_from_json(doc)


def cmd_verify(args) -> int:
    instance = _load_instance(args)
    result = verify_lvp(instance, _limits(args))
    as_json = args.output == "json"
    if isinstance(result, Valid):
        print(json.dumps({"verdict": "valid", "by": result.by}) if as_json else "valid")
        return EXIT_POSITIVE
    if isinstance(result, Invalid):
        graph = result.counterexample.graph
        point = result.counterexample.point
        _emit_dot(args, graph, point)
        outputs = {
            name: graph.spec.format_payload(v.payload)
            for name, v in zip(instance.model.output_features, result.outputs)
        }
        if as_json:
            print(json.dumps({
                "verdict": "invalid",
                "counterexample": graph_to_json(graph, point),
                "outputs": outputs,
            }))
        else:
            print("invalid")
            print("counterexample:")
            _print_graph(graph, point, sys.stdout)
            print("outputs: " + " ".join(f"{k}={v}" for k, v in outputs.items()))
        return EXIT_NEGATIVE
    print(json.dumps({"verdict": "unknown", "reason": result.reason}) if as_json else f"unknown ({result.reason})")
    return EXIT_UNKNOWN


def cmd_sat(args) -> int:
    formula = _read_formula(args)
    return _sat_result(args, solve(formula, DeltaMode.parse(args.delta), _limits(args)))


def cmd_compile(args) -> int:
    print(to_text(compile_lvp(_load_instance(args)).formula))
    return EXIT_POSITIVE


def cmd_eval(args) -> int:
    model = gnn_from_json(_load_doc(args.gnn))
    graph_doc = _load_doc(args.graph)
    graph, point = graph_from_json(graph_doc, model.spec)
    if args.point:
        point = args.point
    if point is None:
        raise GnnCheckError("the graph document has no point; pass --point")
    outputs = gnn_eval(model, PointedGraph(graph, point))
    if args.output == "json":
        print(json.dumps({name: str(v) for name, v in zip(model.output_features, outputs)}))
    else:
        print("(" + ", ".join(str(v) for v in outputs) + ")")
    return EXIT_POSITIVE


def cmd_oracle_sat(args) -> int:
    formula = _read_formula(args)
    limits = _limits(args)
    verdict = brute_force_sat(
        formula,
        DeltaMode.parse(args.delta).value,
        time_limit=limits.time_limit,
        max_steps=ORACLE_STEPS if limits.max_terms is None else limits.max_terms,
    )
    return _sat_result(args, verdict)


def cmd_fuzz(args) -> int:
    spec = ArithmeticSpec.parse(args.arith)
    results = run_differential(
        args.cases,
        args.seed,
        spec,
        DeltaMode.parse(args.delta).value,
        agg_kinds=tuple(args.agg.split(",")),
        max_agg_depth=args.agg_depth,
    )
    disagreements = [r for r in results if not r.agree]
    for r in disagreements:
        print(f"case {r.index}: {r.text}")
        # the oracle does not run at the inf rung
        for d, tableau, oracle in zip([*range(len(r.oracle)), "inf"], r.tableau, r.oracle + ("-",)):
            print(f"  delta {d}: tableau={tableau} oracle={oracle}")
    summary = f"{len(results)} cases, {len(disagreements)} disagreements"
    if args.output == "json":
        print(json.dumps({"cases": len(results), "disagreements": len(disagreements)}))
    else:
        print(summary)
    return EXIT_POSITIVE if not disagreements else EXIT_NEGATIVE


def _add_common(parser, required=False):
    parser.add_argument("--arith", required=required, help="arithmetic spec, satint:<a> or fixed:<bits>:<decimals>")
    parser.add_argument("--delta", required=required, help="arity bound: unary:<k>, binary:<k> or inf")
    parser.add_argument("--time-limit", type=float, default=None, help="seconds before giving up (default: QGNN_TIME_LIMIT)")
    parser.add_argument(
        "--term-limit",
        type=int,
        default=None,
        help="work budget before giving up: ticks of the tableau (for verify, shared with the "
        "counterexample sampling and the box split that run first), or steps of the brute-force "
        "search for oracle sat",
    )
    parser.add_argument("--output", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gnncheck", description="Verification toolkit for quantized GNNs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="decide an LVP instance")
    p.add_argument("instance", help="LVP JSON document")
    _add_common(p)
    p.add_argument("--emit-dot", help="write the counterexample as DOT")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sat", help="decide satisfiability of a formula")
    p.add_argument("formula", help="formula text or a file containing it")
    _add_common(p, required=True)
    p.add_argument("--alpha", default="relu", choices=ACTIVATIONS, help="activation the alpha token resolves to")
    p.add_argument("--emit-dot", help="write the model as DOT")
    p.set_defaults(func=cmd_sat)

    p = sub.add_parser("compile", help="print the formula an LVP instance reduces to")
    p.add_argument("instance")
    p.add_argument("--arith")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("eval", help="run a GNN forward on a pointed graph")
    p.add_argument("gnn")
    p.add_argument("graph")
    p.add_argument("--point", help="evaluation point (defaults to the graph document's)")
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_eval)

    oracle = sub.add_parser("oracle", help="reference procedures")
    osub = oracle.add_subparsers(dest="oracle_command", required=True)
    p = osub.add_parser("sat", help="decide satisfiability by brute force")
    p.add_argument("formula")
    _add_common(p, required=True)
    p.add_argument("--alpha", default="relu", choices=ACTIVATIONS)
    p.add_argument("--emit-dot", help="write the model as DOT")
    p.set_defaults(func=cmd_oracle_sat)

    p = sub.add_parser("fuzz", help="differential test: tableau vs brute force")
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--arith", default="satint:3")
    p.add_argument("--delta", default="unary:2")
    p.add_argument("--agg", default="sum", help="comma-separated aggregation kinds to generate")
    p.add_argument("--agg-depth", type=int, default=2)
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except GnnCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
