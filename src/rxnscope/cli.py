"""Command-line entry points. Everything on stdout is JSON.

Domain failures (an ``RxnscopeError``: bad SMILES, unparsable tables,
broken bundles) and ``OSError`` (missing files) print ``{"error": ...}``
and exit 1; argparse handles usage errors with exit 2. Any other
exception is a bug and is not caught.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .agents import (
    Bundle,
    ExecutionError,
    RemoteBackend,
    ScriptedBackend,
    execute_plan,
    plan_extraction,
)
from .metrics import evaluate
from .jsonshape import read_json
from .molgraph import GraphError, RxnscopeError, main_component
from .reaction import (
    classify_condition,
    condition_to_json,
    decode_records,
    parse_rgroup_table,
    table_row_to_json,
)
from .rgroup import TEMPLATE_SPEC, ReactionTemplate, reconstruct_variant, substitute_placeholders
from .smiles import canonicalize, is_valid, parse_smiles, write_smiles


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, ensure_ascii=False))


def _cmd_canonicalize(args) -> int:
    _emit({"input": args.smiles, "canonical": canonicalize(args.smiles)})
    return 0


def _cmd_validate(args) -> int:
    results = [{"smiles": s, "valid": is_valid(s)} for s in args.smiles]
    _emit({"results": results})
    return 0


def _parse_assignment(pairs: list[str]) -> dict[str, str]:
    assignment: dict[str, str] = {}
    for chunk in pairs:
        for part in chunk.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise RxnscopeError(f"assignment {part!r} is not LABEL=GROUP")
            label, _, value = part.partition("=")
            assignment[label.strip()] = value.strip()
    return assignment


def _cmd_substitute(args) -> int:
    assignment = _parse_assignment(args.assign)
    g = parse_smiles(args.template)
    out = substitute_placeholders(g, assignment)
    smi = canonicalize(write_smiles(main_component(out)))
    _emit({"template": args.template, "assignment": assignment, "result": smi})
    return 0


def _cmd_reconstruct(args) -> int:
    spec = read_json(_read_text(args.template), TEMPLATE_SPEC, args.template, GraphError)
    template = ReactionTemplate(*(tuple(map(parse_smiles, spec[k])) for k in ("reactants", "products")))
    reactants, bindings = reconstruct_variant(template, parse_smiles(args.variant))
    _emit({"variant": args.variant, "bindings": bindings, "reactants": reactants})
    return 0


def _read_text(path: str | None) -> str:
    """The UTF-8 text of the file at ``path``, or of stdin for None or "-"."""
    try:
        if path is None or path == "-":
            return sys.stdin.read()
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise RxnscopeError(f"{path or 'stdin'} is not UTF-8 text: {exc}") from None


def _cmd_table(args) -> int:
    rows = parse_rgroup_table(_read_text(args.input))
    _emit({"rows": [table_row_to_json(r) for r in rows]})
    return 0


def _cmd_conditions(args) -> int:
    text = args.text if args.text is not None else sys.stdin.read()
    items = classify_condition(text)
    _emit({"text": text, "items": [condition_to_json(i) for i in items]})
    return 0


def _write_trace(path: str, trace: tuple) -> None:
    Path(path).write_text(
        json.dumps(list(trace), indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )


def _cmd_extract(args) -> int:
    bundle = Bundle.load(args.bundle)
    backend = RemoteBackend() if args.backend == "remote" else ScriptedBackend()
    plan = plan_extraction(bundle.descriptor, backend)
    try:
        result = execute_plan(plan, bundle.descriptor, backend=backend)
    except ExecutionError as exc:
        # The trace of a failed run says which tool failed and why.
        if args.trace:
            _write_trace(args.trace, exc.trace)
        raise
    if args.trace:
        _write_trace(args.trace, result.trace)
    if args.out:
        Path(args.out).write_text(result.document + "\n", encoding="utf-8")
        _emit({"written": args.out, "records": len(result.records)})
    else:
        print(result.document)
    return 0


def _cmd_evaluate(args) -> int:
    pred, _ = decode_records(_read_text(args.pred))
    gold, _ = decode_records(_read_text(args.gold))
    _emit(evaluate(pred, gold))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rxnscope", description="Reaction-scheme extraction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canonicalize", help="canonical SMILES for one molecule")
    p.add_argument("smiles")
    p.set_defaults(fn=_cmd_canonicalize)

    p = sub.add_parser("validate", help="valence-check SMILES strings")
    p.add_argument("smiles", nargs="+")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("substitute", help="splice groups into a template")
    p.add_argument("--template", required=True, help="SMILES with [R1]-style placeholders")
    p.add_argument(
        "--assign",
        action="append",
        required=True,
        help="comma-separated LABEL=GROUP pairs, e.g. R1=Ph,R2=H",
    )
    p.set_defaults(fn=_cmd_substitute)

    p = sub.add_parser(
        "reconstruct", help="recover reactants for a product variant"
    )
    p.add_argument(
        "--template",
        required=True,
        help='JSON file {"reactants": [...], "products": [...]} of template SMILES',
    )
    p.add_argument("--variant", required=True, help="product variant SMILES")
    p.set_defaults(fn=_cmd_reconstruct)

    p = sub.add_parser("table", help="parse an R-group table")
    p.add_argument("--input", help="table file (default: stdin)")
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("conditions", help="classify a condition string")
    p.add_argument("--text", help="condition text (default: stdin)")
    p.set_defaults(fn=_cmd_conditions)

    p = sub.add_parser("extract", help="run the extraction pipeline on a bundle")
    p.add_argument("--bundle", required=True, help="bundle directory")
    p.add_argument("--backend", choices=["scripted", "remote"], default="scripted")
    p.add_argument("--out", help="write the document JSON here instead of stdout")
    p.add_argument("--trace", help="write the execution trace JSON here")
    p.set_defaults(fn=_cmd_extract)

    p = sub.add_parser("evaluate", help="score predicted records against gold")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.set_defaults(fn=_cmd_evaluate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            code = args.fn(args)
        except (RxnscopeError, OSError) as exc:
            if isinstance(exc, BrokenPipeError):
                raise
            _emit({"error": f"{type(exc).__name__}: {exc}"})
            code = 1
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``rxnscope ... | head``). Python flushes
        # stdout again at exit; point it at devnull so that flush is silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
