"""The benchmark's workloads: seeded input pools, one operation, its checks.

Every workload builds a pool of inputs from the seed during set-up and then
runs a closed loop with one caller over that pool.  An operation is one call
into specrad's public API, timed from outside.  README.md in this directory
says why each workload exists and which layer it loads.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import zlib

import numpy as np

PHI = (1.0 + math.sqrt(5.0)) / 2.0
GOLDEN_PAIR = (((1.0, 1.0), (0.0, 1.0)), ((1.0, 0.0), (1.0, 1.0)))


class Outcome:
    """How one operation ended.

    ``ok`` is False for a result that counts against ``ok_frac``: a fail or
    inconclusive verdict, a raised SpecradError, or an unconverged bracket.
    ``error`` is set when a correctness check failed or the call raised
    something other than a SpecradError; it fails the whole run.
    """

    __slots__ = ("ok", "error", "result", "exc_name")

    def __init__(self, ok: bool, error: str | None, result, exc_name: str | None):
        self.ok = ok
        self.error = error
        self.result = result
        self.exc_name = exc_name


class SweepWorkload:
    """Registry chains of one level evaluated through ``evaluate_chain``.

    A round evaluates every chain of the level once.  The ensemble of each
    input rotates with the round and the chain index, so every round mixes
    sizes (or family kinds) evenly and any whole number of rounds has the
    same composition whatever the seed.
    """

    tail_pct = 99.0

    def __init__(self, name: str, level: str, ensemble, pool_rounds: int,
                 reference_rounds: int, overhead_ops: int):
        self.name = name
        self.level = level
        self._ensemble = ensemble          # (api, seed, round, chain index) -> EnsembleSpec
        self.pool_rounds = pool_rounds
        self.reference_rounds = reference_rounds
        self.overhead_ops = overhead_ops
        self.round_size = 0

    def specs(self, api):
        specs = [s for s in api.registry.registry() if s.level == self.level]
        self.round_size = len(specs)
        return specs

    def make_pool(self, api, specs, seed: int, rounds: int | None = None) -> list:
        items = []
        for r in range(self.pool_rounds if rounds is None else rounds):
            for i, spec in enumerate(specs):
                ens = self._ensemble(api, seed, r, i)
                rng = api.ensembles.rng_for(ens, r, spec.id)
                items.append((spec, spec.sample(rng, ens), r))
        return items

    @staticmethod
    def label(item) -> str:
        return item[0].id

    @staticmethod
    def run(api, item, ctx):
        spec, inputs, trial = item
        return api.chains.evaluate_chain(spec, inputs, ctx, trial)

    @staticmethod
    def judge(item, report) -> tuple[bool, str | None]:
        if report.verdict == "fail":
            return False, (f"{item[0].id} trial {item[2]}: fail verdict "
                           f"(input {report.input_digest})")
        return report.verdict == "pass", None

    @staticmethod
    def describe(item, outcome: Outcome) -> tuple[str, dict]:
        if outcome.result is None:
            return "error", {"chain_id": item[0].id, "error": outcome.exc_name}
        return outcome.result.verdict, outcome.result.to_json()


class SetRadiiWorkload:
    """Joint spectral radius solves on seeded 2x2 pairs near the golden pair.

    One operation is ``gripenberg_bracket(S, DELTA, budget=BUDGET)`` plus
    ``gen_radius_lb(S, LB_DEPTH)``.  The first input is the golden-ratio pair
    itself, whose joint spectral radius is phi; the others add EPS times a
    uniform [0, 1) draw to each of its entries.  Uniform random pairs, or a
    smaller DELTA, make the branch and bound's cost heavy-tailed (2 ms to 7 s
    per pair), so no run that fits the time budget holds enough pairs for a
    steady mean.  Near the golden pair with a finite budget the cost per pair
    stays within a few times its median, and the budget still stops a share
    of the solves unconverged.
    """

    DELTA = 1e-2
    BUDGET = 1000
    LB_DEPTH = 8
    EPS = 0.3
    tail_pct = 90.0
    round_size = 1
    reference_rounds = 6
    overhead_ops = 12

    def __init__(self, name: str, pool_size: int):
        self.name = name
        self.pool_size = pool_size

    @staticmethod
    def specs(api):
        api.registry.registry()   # set-up pays for the registry on every workload
        return []

    def make_pool(self, api, specs, seed: int, rounds: int | None = None) -> list:
        count = self.pool_size if rounds is None else rounds
        rng = np.random.default_rng([seed, zlib.crc32(self.name.encode("utf-8"))])
        golden = [np.array(m) for m in GOLDEN_PAIR]
        items = [("golden", api.sets.OperatorSet([api.matrices.FiniteMatrix(m) for m in golden]))]
        for k in range(1, count):
            mats = [api.matrices.FiniteMatrix(m + self.EPS * rng.random((2, 2))) for m in golden]
            items.append((f"pair{k}", api.sets.OperatorSet(mats)))
        return items

    @staticmethod
    def label(item) -> str:
        return "set"

    def run(self, api, item, ctx):
        bracket = api.jsr.gripenberg_bracket(item[1], self.DELTA, budget=self.BUDGET)
        return bracket, api.jsr.gen_radius_lb(item[1], self.LB_DEPTH)

    @staticmethod
    def judge(item, result) -> tuple[bool, str | None]:
        bracket, lb = result
        if lb > bracket.hi * (1.0 + 1e-9):
            return False, f"{item[0]}: gen_radius_lb {lb!r} exceeds gripenberg hi {bracket.hi!r}"
        if item[0] == "golden" and not bracket.lo <= PHI <= bracket.hi:
            return False, f"golden pair bracket [{bracket.lo!r}, {bracket.hi!r}] misses phi"
        return bracket.converged, None

    @staticmethod
    def describe(item, outcome: Outcome) -> tuple[str, dict]:
        if outcome.result is None:
            return "error", {"set": item[0], "error": outcome.exc_name}
        bracket, lb = outcome.result
        return ("converged" if bracket.converged else "unconverged",
                {"set": item[0], "lo": bracket.lo, "hi": bracket.hi, "lb": lb})


def call(workload, api, item, ctx) -> tuple[float, Outcome]:
    """Run one operation; returns (seconds, Outcome).

    A SpecradError is a typed refusal and only counts against ``ok_frac``;
    any other exception is a bug and fails the run.
    """
    start = time.perf_counter()
    try:
        result = workload.run(api, item, ctx)
    except api.errors.SpecradError as exc:
        return time.perf_counter() - start, Outcome(False, None, None, type(exc).__name__)
    except Exception as exc:  # recorded as a check failure, never re-raised
        return (time.perf_counter() - start,
                Outcome(False, f"{workload.label(item)}: {type(exc).__name__}: {exc}",
                        None, type(exc).__name__))
    elapsed = time.perf_counter() - start
    ok, error = workload.judge(item, result)
    return elapsed, Outcome(ok, error, result, None)


def reference(workload, api, specs, seed: int, ctx) -> tuple[dict, str, list[str]]:
    """Outcome counts, sha256 of the serialized results and check failures.

    The slice is the first ``reference_rounds`` rounds of the seed's pool.
    """
    counts: dict[str, int] = {}
    docs = []
    errors = []
    for item in workload.make_pool(api, specs, seed, workload.reference_rounds):
        _, outcome = call(workload, api, item, ctx)
        if outcome.error:
            errors.append(outcome.error)
        key, doc = workload.describe(item, outcome)
        counts[key] = counts.get(key, 0) + 1
        docs.append(doc)
    blob = json.dumps(docs, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return counts, hashlib.sha256(blob.encode("utf-8")).hexdigest(), errors


def _dense(api, seed, r, i):
    return api.ensembles.EnsembleSpec(kind="dense_uniform", size=4 + (r + i) % 3, seed=seed)


def _sparse(api, seed, r, i):
    return api.ensembles.EnsembleSpec(kind="sparse_bernoulli", size=12, density=0.15,
                                      seed=seed)


def _families(api, seed, r, i):
    kinds = ("shift_family", "diagonal_family", "shift_plus_rank")
    return api.ensembles.EnsembleSpec(kind=kinds[(r + i) % 3], size=4, seed=seed)


WORKLOADS = {
    "finite_dense": SweepWorkload("finite_dense", "finite", _dense, 480, 3, 48),
    "finite_sparse": SweepWorkload("finite_sparse", "finite", _sparse, 480, 3, 48),
    "essential_mix": SweepWorkload("essential_mix", "essential", _families, 360, 1, 42),
    "set_radii": SetRadiiWorkload("set_radii", 1200),
}
