"""Command-line front end.

Subcommands:

- ``check``     evaluate named chains on explicit or seeded random inputs
- ``sweep``     run a registry subset over seeded ensembles, write a report
- ``estimate``  print a certified bracket for rho / norm / gamma / ess / jsr
- ``catalog``   export the chain catalog as JSON

Exit codes: 0 all pass, 1 any fail, 3 any inconclusive, 2 input error.
Reports embed the toolkit version and the full run configuration; identical
configurations produce byte-identical reports.

``check`` and ``sweep`` take two evaluation settings, echoed into every
report: ``--finite-tol`` and ``--ess-tol`` (finite, >= 0).  A value out of
range is an input error.  Reports also record the fixed settings
``rho_tol``, ``set_m_max`` (the finite set-product depth factor, always 1)
and ``space``.  Essential brackets have no depth or power
budget: the noncompactness measure is multiplicative on banded families,
so longer products and higher powers cannot tighten them.  ``--seed`` is an
integer >= 0.  ``estimate`` takes a ``--tol`` that is finite and >= 0 (unset
means ``spectral.DEFAULT_RHO_TOL``), a ``--delta`` that is finite and > 0 and
a ``--budget`` >= 0; any other value is an input error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import __version__
from .chains import ChainInputs, ChainSpec, EvalContext, evaluate_chain, run_ensemble
from .ensembles import KINDS, EnsembleSpec
from .errors import InputFormatError, SpecradError
from .jsr import gripenberg_bracket
from .registry import by_id, catalog_json, registry
from .serialize import (
    _require_object,
    family_from_json,
    matrix_from_json,
    set_from_json,
)
from .spectral import (
    DEFAULT_RHO_TOL,
    SPACES,
    essential_spectral_radius,
    hausdorff_mnc,
    operator_norm,
    spectral_radius,
)


def _context(args) -> tuple[EvalContext, dict]:
    ctx = EvalContext(finite_tol=args.finite_tol, ess_tol=args.ess_tol)
    return ctx, ctx.to_json()


def _ensemble(args) -> EnsembleSpec:
    return EnsembleSpec(kind=args.ensemble, size=args.size,
                        density=args.density, seed=args.seed)


def _resolve_ids(tokens, level: str | None = None) -> list:
    specs = registry()
    if not tokens or "all" in tokens:
        chosen = specs
    else:
        wanted = []
        for tok in tokens:
            wanted += [t for t in tok.split(",") if t]
        chosen = [by_id(t) for t in wanted]
    if level and level != "all":
        chosen = [c for c in chosen if c.level == level]
    if not chosen:
        raise InputFormatError("no chains selected")
    return chosen


def _load_json_file(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON (line {exc.lineno}, col {exc.colno})") from exc


def _inputs_from_file(path: str, spec: ChainSpec) -> ChainInputs:
    """The operands and params of one ``check --input`` bundle for ``spec``.

    A top-level key other than the operand lists and ``params``, or a
    param the chain does not declare, is refused: a misspelt key would
    otherwise be dropped and the chain judged without it.
    """
    obj = _load_json_file(path)
    _require_object(obj, "input file",
                    ("matrices", "families", "matrix_sets", "family_sets", "params"))
    declared = tuple(spec.arity.get("params", ()))
    _require_object(obj.get("params", {}), "params", declared)
    try:
        return ChainInputs(
            matrices=tuple(matrix_from_json(m) for m in obj.get("matrices", [])),
            families=tuple(family_from_json(f) for f in obj.get("families", [])),
            matrix_sets=tuple(set_from_json(s) for s in obj.get("matrix_sets", [])),
            family_sets=tuple(set_from_json(s) for s in obj.get("family_sets", [])),
            params={k: (tuple(v) if isinstance(v, list) else v)
                    for k, v in obj.get("params", {}).items()},
        )
    except InputFormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"malformed inputs in {path}: {exc}") from exc


def _verdict_exit(counts: dict) -> int:
    if counts.get("fail", 0):
        return 1
    if counts.get("inconclusive", 0):
        return 3
    return 0


def _report_doc(command: str, config: dict, runs: list, totals: dict) -> dict:
    return {"tool": "specrad", "version": __version__, "command": command,
            "config": config, "totals": totals, "runs": runs}


def _csv_rows(reports) -> list[list]:
    rows = []
    for rep in reports:
        for part in rep.parts:
            for i, term in enumerate(part.rows):
                slack = part.slacks[i] if i < len(part.slacks) else ""
                rows.append([rep.chain_id, rep.trial, i,
                             f"{part.name}/{term.label}", term.lo, term.hi,
                             slack, part.verdict])
    return rows


def _write_report(path: str | None, fmt: str, doc: dict, reports) -> None:
    if path is None:
        return
    if fmt == "json":
        text = json.dumps(doc, indent=2, sort_keys=False, allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["chain_id", "trial", "term_index", "term_label",
                         "lo", "hi", "slack", "verdict"])
        writer.writerows(_csv_rows(reports))
        text = buf.getvalue()
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputFormatError(f"cannot write {path}: {exc}") from exc


def _print_report(rep, verbose: bool = True) -> None:
    print(f"{rep.chain_id} trial={rep.trial} digest={rep.input_digest} "
          f"verdict={rep.verdict}")
    if not verbose:
        return
    for part in rep.parts:
        print(f"  [{part.kind}] {part.name}: {part.verdict}"
              + (f"  ({part.note})" if part.note else ""))
        for i, term in enumerate(part.rows):
            tail = f"  slack={part.slacks[i]:.6g}" if i < len(part.slacks) else ""
            print(f"    {term.label:48s} [{term.lo:.12g}, {term.hi:.12g}] "
                  f"{term.method}{tail}")


def cmd_check(args) -> int:
    ctx, config = _context(args)
    specs = _resolve_ids(args.id)
    config.update({"ids": [s.id for s in specs], "seed": args.seed,
                   "trials": args.trials})
    reports = []
    if args.input:
        if len(specs) != 1:
            raise InputFormatError("--input evaluates exactly one chain id")
        inputs = _inputs_from_file(args.input, specs[0])
        config["input"] = args.input
        reports.append(evaluate_chain(specs[0], inputs, ctx))
    else:
        ens = _ensemble(args)
        config["ensemble"] = ens.to_json()
        for spec in specs:
            run = run_ensemble(spec, ens, args.trials, ctx)
            reports.extend(run.reports)
    totals = {"pass": 0, "fail": 0, "inconclusive": 0}
    for rep in reports:
        totals[rep.verdict] += 1
        _print_report(rep, verbose=not args.quiet)
    doc = _report_doc("check", config, [r.to_json() for r in reports], totals)
    _write_report(args.out, args.format, doc, reports)
    return _verdict_exit(totals)


def cmd_sweep(args) -> int:
    ctx, config = _context(args)
    specs = _resolve_ids(args.ids, level=args.registry)
    ens = _ensemble(args)
    config.update({"registry": args.registry, "ids": [s.id for s in specs],
                   "ensemble": ens.to_json(), "trials": args.trials,
                   "dump_inputs": bool(args.dump_inputs)})
    runs = []
    reports = []
    totals = {"pass": 0, "fail": 0, "inconclusive": 0}
    for spec in specs:
        run = run_ensemble(spec, ens, args.trials, ctx)
        for key in totals:
            totals[key] += run.summary[key]
        run_json = run.to_json()
        if args.dump_inputs:
            run_json["inputs"] = [inputs.to_json() for inputs in run.inputs]
        runs.append(run_json)
        reports.extend(run.reports)
        s = run.summary
        print(f"{spec.id:4s} trials={s['trials']} pass={s['pass']} "
              f"fail={s['fail']} inconclusive={s['inconclusive']} "
              f"min_slack={s['min_slack']}")
    doc = _report_doc("sweep", config, runs, totals)
    _write_report(args.out, args.format, doc, reports)
    print(f"total: pass={totals['pass']} fail={totals['fail']} "
          f"inconclusive={totals['inconclusive']}")
    return _verdict_exit(totals)


def cmd_estimate(args) -> int:
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0):
        raise InputFormatError(f"--tol must be a finite number >= 0, got {args.tol!r}")
    if not (math.isfinite(args.delta) and args.delta > 0):
        raise InputFormatError(f"--delta must be a finite number > 0, got {args.delta!r}")
    if args.budget < 0:
        raise InputFormatError(f"--budget must be an integer >= 0, got {args.budget!r}")
    tol = DEFAULT_RHO_TOL if args.tol is None else args.tol
    obj = _load_json_file(args.input)
    q = args.quantity
    if q == "rho":
        b = spectral_radius(matrix_from_json(obj), tol)
    elif q == "norm":
        b = operator_norm(matrix_from_json(obj), args.space, tol)
    elif q == "gamma":
        b = hausdorff_mnc(family_from_json(obj))
    elif q == "ess":
        b = essential_spectral_radius(family_from_json(obj))
    elif q == "jsr":
        b = gripenberg_bracket(set_from_json(obj), args.delta, budget=args.budget,
                               space=args.space)
    else:  # pragma: no cover - argparse restricts choices
        raise InputFormatError(f"unknown quantity {q}")
    print(f"{q} in [{b.lo:.12g}, {b.hi:.12g}] width={b.width:.3g} "
          f"method={b.method} converged={b.converged}")
    if args.out:
        doc = _report_doc("estimate", {"quantity": q, "input": args.input,
                                       "space": args.space, "delta": args.delta,
                                       "tol": args.tol, "budget": args.budget},
                          [{"lo": b.lo, "hi": b.hi, "method": b.method,
                            "converged": b.converged}], {})
        _write_report(args.out, "json", doc, [])
    return 0


def cmd_catalog(args) -> int:
    doc = {"tool": "specrad", "version": __version__, "chains": catalog_json()}
    if args.out:
        _write_report(args.out, "json", doc, [])
    else:
        print(json.dumps(doc, indent=2, allow_nan=False))
    return 0


def _add_common_eval_flags(p):
    p.add_argument("--seed", type=int, default=0, help="ensemble seed (integer >= 0)")
    p.add_argument("--trials", type=int, default=1, help="trials per chain")
    p.add_argument("--ensemble", choices=KINDS, default="dense_uniform")
    p.add_argument("--size", type=int, default=4, help="matrix size")
    p.add_argument("--density", type=float, default=0.3,
                   help="sparse ensemble density")
    p.add_argument("--finite-tol", type=float, default=EvalContext.finite_tol,
                   help="relative judging slack of finite chains (finite, >= 0)")
    p.add_argument("--ess-tol", type=float, default=EvalContext.ess_tol,
                   help="relative judging slack of essential chains (finite, >= 0)")
    p.add_argument("--out", default=None, help="report file path")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specrad",
        description="Certified spectral-radius brackets and an inequality "
                    "verification registry for nonnegative operators.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate chains on explicit or random inputs")
    p.add_argument("--id", action="append", default=None, required=True,
                   help="chain id (repeatable, comma lists, or 'all')")
    p.add_argument("--input", default=None, help="JSON input bundle")
    p.add_argument("--quiet", action="store_true")
    _add_common_eval_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sweep", help="run a registry subset over ensembles")
    p.add_argument("--registry", choices=("all", "finite", "essential"),
                   default="all")
    p.add_argument("--ids", action="append", default=None,
                   help="restrict to these chain ids")
    p.add_argument("--dump-inputs", action="store_true",
                   help="embed the sampled inputs in the report")
    _add_common_eval_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("estimate", help="print one certified bracket")
    p.add_argument("quantity", choices=("rho", "norm", "gamma", "ess", "jsr"))
    p.add_argument("--input", required=True, help="JSON operator or set")
    p.add_argument("--space", choices=SPACES, default="l2")
    p.add_argument("--delta", type=float, default=1e-6, help="jsr gap target (finite, > 0)")
    p.add_argument("--budget", type=int, default=200_000, help="jsr product budget (>= 0)")
    p.add_argument("--tol", type=float, default=None, help="rho and norm tolerance (finite, >= 0)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("catalog", help="export the chain catalog as JSON")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecradError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
