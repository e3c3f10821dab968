"""Evaluation engine for inequality chains.

A chain specification names the inputs it consumes, a hypothesis over
those inputs, and one or more parts.  Every part is an ordered list of
labelled terms, each evaluated to a certified bracket (or, for entrywise
parts, to a matrix), and is judged as follows:

- ``fail`` only when a lower endpoint certifiably exceeds the next upper
  endpoint, i.e. the inequality is violated beyond tolerance.  Since the
  underlying theorems are true, a fail localizes a toolkit bug.
- ``pass`` when the certified upper estimates are ordered the way the
  theorem predicts.
- ``inconclusive`` otherwise: the brackets overlap too ambiguously to
  order adjacent terms, typically because an estimator hit its budget.

Equality parts pass when adjacent brackets overlap and fail when they are
certifiably disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .ensembles import EnsembleSpec, rng_for
from .errors import (BudgetExceededError, ClosureOverflowError, HypothesisViolation, _integer,
                     _is_int, _is_number, _real)
from .families import OperatorFamily
from .matrices import FiniteMatrix
from .serialize import digest, element_to_json, matrix_to_json, set_to_json
from .sets import OperatorSet
from .spectral import DEFAULT_RHO_TOL, L2

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

CHAIN = "chain"
EQUALITY = "equality"
ENTRYWISE = "entrywise"


@dataclass(frozen=True)
class EvalContext:
    """Judging tolerances; echoed into reports.

    The tolerances are finite and >= 0: a negative one fails true chains and
    a nan or inf one cannot be written to a report.  Brackets are computed
    at ``spectral.DEFAULT_RHO_TOL`` in l2, and the finite set-product depth
    factor is fixed at 1; reports record them as "rho_tol", "space" and
    "set_m_max".
    """

    finite_tol: float = 1e-9
    ess_tol: float = 1e-6

    def __post_init__(self):
        for name in ("finite_tol", "ess_tol"):
            object.__setattr__(self, name, _real(getattr(self, name), name))

    def tol_for(self, level: str) -> float:
        return self.finite_tol if level == "finite" else self.ess_tol

    def to_json(self) -> dict:
        return {"finite_tol": self.finite_tol, "ess_tol": self.ess_tol,
                "rho_tol": DEFAULT_RHO_TOL, "set_m_max": 1,
                "space": L2}


@dataclass(frozen=True)
class ChainInputs:
    """Concrete operands for one chain evaluation."""

    matrices: tuple[FiniteMatrix, ...] = ()
    families: tuple[OperatorFamily, ...] = ()
    matrix_sets: tuple[OperatorSet, ...] = ()
    family_sets: tuple[OperatorSet, ...] = ()
    params: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out: dict = {}
        if self.matrices:
            out["matrices"] = [matrix_to_json(m) for m in self.matrices]
        if self.families:
            out["families"] = [element_to_json(f) for f in self.families]
        if self.matrix_sets:
            out["matrix_sets"] = [set_to_json(s) for s in self.matrix_sets]
        if self.family_sets:
            out["family_sets"] = [set_to_json(s) for s in self.family_sets]
        if self.params:
            out["params"] = _params_json(self.params)
        return out


def _params_json(params: dict) -> dict:
    """Params as JSON values: a sequence becomes a list, and in it or not an
    integer of any type but bool (a numpy one too) becomes an ``int`` and
    any other real number a ``float``."""
    return {k: _json_value(v) for k, v in params.items()}


def _json_value(v):
    if type(v) is float or type(v) is int:  # skips the slower ABC checks below
        return v
    if isinstance(v, (tuple, list)):
        return [_json_value(x) for x in v]
    if not _is_number(v):
        return v
    return int(v) if _is_int(v) else float(v)


@dataclass(frozen=True)
class Part:
    """One comparable sequence inside a chain."""

    name: str
    kind: str  # chain | equality | entrywise
    terms: list  # [(label, Bracket)] or [(label, FiniteMatrix)]


@dataclass(frozen=True)
class ChainSpec:
    """A machine-checkable inequality chain from the catalog."""

    id: str
    title: str
    level: str  # finite | essential
    description: str
    arity: dict
    hypothesis_doc: str
    sample: Callable[[np.random.Generator, EnsembleSpec], ChainInputs]
    hypothesis: Callable[[ChainInputs], str | None]
    build: Callable[[ChainInputs], list[Part]]

    def catalog_entry(self) -> dict:
        return {"id": self.id, "title": self.title, "level": self.level,
                "description": self.description, "hypothesis": self.hypothesis_doc,
                "arity": self.arity}


@dataclass(frozen=True)
class TermRow:
    label: str
    lo: float
    hi: float
    method: str


@dataclass(frozen=True)
class PartReport:
    name: str
    kind: str
    rows: tuple[TermRow, ...]
    slacks: tuple[float, ...]
    verdict: str
    note: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "kind": self.kind,
                "terms": [{"label": r.label, "lo": r.lo, "hi": r.hi,
                           "method": r.method} for r in self.rows],
                "slacks": list(self.slacks), "verdict": self.verdict,
                "note": self.note}


@dataclass(frozen=True)
class ChainReport:
    chain_id: str
    trial: int
    input_digest: str
    verdict: str
    parts: tuple[PartReport, ...]
    params: dict

    def to_json(self) -> dict:
        return {"chain_id": self.chain_id, "trial": self.trial,
                "input_digest": self.input_digest, "verdict": self.verdict,
                "params": _params_json(self.params),
                "parts": [p.to_json() for p in self.parts]}

    def min_slack(self) -> float:
        slacks = [s for p in self.parts for s in p.slacks]
        return min(slacks) if slacks else float("inf")


def _combine(verdicts) -> str:
    verdicts = list(verdicts)
    if FAIL in verdicts:
        return FAIL
    if INCONCLUSIVE in verdicts:
        return INCONCLUSIVE
    return PASS


def _atol(scale: float) -> float:
    return 1e-12 * max(1.0, scale)


def _judge_bracket_part(part: Part, tol: float) -> PartReport:
    """Judge a chain or an equality part over its adjacent bracket pairs."""
    rows = tuple(TermRow(label, b.lo, b.hi, b.method) for label, b in part.terms)
    scale = max((r.hi for r in rows), default=0.0)
    atol = _atol(scale)
    slacks = []
    verdicts = []
    for (_, a), (_, b) in zip(part.terms, part.terms[1:]):
        bound = b.hi * (1.0 + tol) + atol
        if part.kind == EQUALITY:
            sep = max(a.lo - bound, b.lo - (a.hi * (1.0 + tol) + atol))
            slacks.append(-sep)
            verdicts.append(FAIL if sep > 0 else PASS)
        else:
            slacks.append(bound - a.lo)
            if a.lo > bound:
                verdicts.append(FAIL)
            elif a.hi <= bound:
                verdicts.append(PASS)
            else:
                verdicts.append(INCONCLUSIVE)
    return PartReport(part.name, part.kind, rows, tuple(slacks), _combine(verdicts))


def _judge_entrywise_part(part: Part, tol: float) -> PartReport:
    rows = []
    scale = 0.0
    for label, m in part.terms:
        top = m.entry_sup()
        scale = max(scale, top)
        rows.append(TermRow(label, top, top, "entrywise-sup"))
    atol = _atol(scale)
    slacks = []
    verdicts = []
    for (_, a), (_, b) in zip(part.terms, part.terms[1:]):
        margin = float((b.a * (1 + tol) + atol - a.a).min())
        slacks.append(margin)
        verdicts.append(FAIL if margin < 0 else PASS)
    return PartReport(part.name, part.kind, tuple(rows), tuple(slacks), _combine(verdicts))


_JUDGES = {CHAIN: _judge_bracket_part, EQUALITY: _judge_bracket_part,
           ENTRYWISE: _judge_entrywise_part}


def evaluate_chain(spec: ChainSpec, inputs: ChainInputs, ctx: EvalContext,
                   trial: int = 0) -> ChainReport:
    """Evaluate one chain on explicit inputs.

    Raises HypothesisViolation when the inputs do not meet the chain's side
    conditions.  Estimator budget exhaustion inside a part downgrades that
    part to inconclusive rather than aborting the report.
    """
    reason = spec.hypothesis(inputs)
    if reason is not None:
        raise HypothesisViolation(f"{spec.id}: {reason}")
    tol = ctx.tol_for(spec.level)
    part_reports = []
    try:
        parts = spec.build(inputs)
    except (BudgetExceededError, ClosureOverflowError) as exc:
        part_reports.append(PartReport("build", CHAIN, (), (), INCONCLUSIVE, str(exc)))
        parts = []
    for part in parts:
        part_reports.append(_JUDGES[part.kind](part, tol))
    verdict = _combine(p.verdict for p in part_reports)
    return ChainReport(spec.id, trial, digest(inputs.to_json()), verdict,
                       tuple(part_reports), dict(inputs.params))


@dataclass(frozen=True)
class EnsembleRun:
    """The reports of one chain over an ensemble, and the inputs they evaluated."""

    chain_id: str
    reports: tuple[ChainReport, ...]
    summary: dict
    inputs: tuple[ChainInputs, ...]

    def to_json(self) -> dict:
        return {"chain_id": self.chain_id, "summary": self.summary,
                "reports": [r.to_json() for r in self.reports]}


def run_ensemble(spec: ChainSpec, ens: EnsembleSpec, trials: int,
                 ctx: EvalContext) -> EnsembleRun:
    """Evaluate a chain over seeded random inputs; deterministic per spec."""
    trials = _integer(trials, 1, "trials", HypothesisViolation)
    reports = []
    sampled = []
    for trial in range(trials):
        inputs = spec.sample(rng_for(ens, trial, spec.id), ens)
        sampled.append(inputs)
        reports.append(evaluate_chain(spec, inputs, ctx, trial))
    counts = {PASS: 0, FAIL: 0, INCONCLUSIVE: 0}
    min_slack = float("inf")
    argmin = ""
    for r in reports:
        counts[r.verdict] += 1
        s = r.min_slack()
        if s < min_slack:
            min_slack, argmin = s, r.input_digest
    summary = {"trials": trials, "pass": counts[PASS], "fail": counts[FAIL],
               "inconclusive": counts[INCONCLUSIVE],
               "min_slack": min_slack if min_slack != float("inf") else None,
               "argmin_digest": argmin}
    return EnsembleRun(spec.id, tuple(reports), summary, tuple(sampled))
