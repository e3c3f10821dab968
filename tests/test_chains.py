import dataclasses
import json

import numpy as np
import pytest

from specrad import (
    ChainInputs,
    EnsembleSpec,
    EvalContext,
    FiniteMatrix,
    HypothesisViolation,
    evaluate_chain,
    run_ensemble,
)
from specrad.chains import CHAIN, ChainSpec, Part
from specrad.ensembles import rng_for
from specrad.errors import DomainError
from specrad.registry import by_id
from specrad.spectral import Bracket


CTX = EvalContext()


def _const_chain(values, tol_level="finite"):
    """Test-only chain whose terms are fixed point brackets."""

    def build(inputs):
        return [Part("fixed", CHAIN,
                     [(f"t{i}", Bracket(v, v, "fixed")) for i, v in enumerate(values)])]

    return ChainSpec("TEST", "fixed", tol_level, "test-only fixture", {},
                     "none", lambda rng, ens: ChainInputs(),
                     lambda inputs: None, build)


def _wide_chain():
    def build(inputs):
        return [Part("wide", CHAIN, [
            ("t0", Bracket(0.0, 10.0, "wide")),
            ("t1", Bracket(0.0, 5.0, "tight")),
        ])]

    return ChainSpec("WIDE", "wide", "finite", "test-only fixture", {},
                     "none", lambda rng, ens: ChainInputs(),
                     lambda inputs: None, build)


def test_verdicts():
    assert evaluate_chain(_const_chain([1.0, 2.0, 3.0]), ChainInputs(), CTX).verdict == "pass"
    assert evaluate_chain(_const_chain([3.0, 2.0]), ChainInputs(), CTX).verdict == "fail"
    assert evaluate_chain(_wide_chain(), ChainInputs(), CTX).verdict == "inconclusive"
    rep = evaluate_chain(_const_chain([1.0, 1.0]), ChainInputs(), CTX)
    assert rep.verdict == "pass"  # equality within tolerance is not a failure


def test_relative_tolerance_scales():
    # a relative wobble below the finite tolerance must pass
    eps = 1e-12
    assert evaluate_chain(_const_chain([1.0 + eps, 1.0]), ChainInputs(), CTX).verdict == "pass"
    assert evaluate_chain(_const_chain([2.0, 1.0]), ChainInputs(), CTX).verdict == "fail"


def test_hypothesis_rejection():
    spec = by_id("F10")
    bad = ChainInputs(matrices=(FiniteMatrix([[1.0]]),), params={"t": 0.5})
    with pytest.raises(HypothesisViolation):
        evaluate_chain(spec, bad, CTX)
    spec = by_id("E1")
    bad = ChainInputs(families=(), params={"m": 1, "t": 0.5})
    with pytest.raises(HypothesisViolation):
        evaluate_chain(spec, bad, CTX)


def test_reports_are_deterministic():
    ens = EnsembleSpec(kind="dense_uniform", size=4, seed=5)
    spec = by_id("F2")
    a = run_ensemble(spec, ens, 4, CTX)
    b = run_ensemble(spec, ens, 4, CTX)
    assert a.to_json() == b.to_json()
    assert a.summary["pass"] == 4


def test_f2_ones_example():
    spec = by_id("F2")
    j = FiniteMatrix([[1, 1], [1, 1]])
    rep = evaluate_chain(spec, ChainInputs(matrices=(j, j)), CTX)
    assert rep.verdict == "pass"
    values = [row.hi for row in rep.parts[0].rows]
    assert values == pytest.approx([2.0, 2.0, 4.0], rel=1e-9)


def test_f4_degenerate_m1_collapses():
    spec = by_id("F4")
    a = FiniteMatrix([[0.3, 1.2], [0.7, 0.1]])
    rep = evaluate_chain(spec, ChainInputs(matrices=(a,), params={"m": 1}), CTX)
    assert rep.verdict == "pass"
    rows = rep.parts[0].rows
    assert rows[0].lo == pytest.approx(rows[1].lo, rel=1e-9)


def test_e10_shift_example():
    from specrad import Constant, shift_family
    spec = by_id("E10")
    c = 0.9
    f = shift_family(Constant(c))
    rep = evaluate_chain(spec, ChainInputs(families=(f, f),
                                           params={"beta": 0.5, "beta_open": 0.5}), CTX)
    assert rep.verdict == "pass"
    for part in rep.parts:
        for row in part.rows:
            assert row.hi == pytest.approx(c * c, rel=1e-9)


def test_run_ensemble_summary_fields():
    ens = EnsembleSpec(kind="shift_family", size=4, seed=9)
    run = run_ensemble(by_id("E2"), ens, 3, CTX)
    s = run.summary
    assert s["trials"] == 3
    assert s["pass"] + s["fail"] + s["inconclusive"] == 3
    assert s["argmin_digest"]
    assert run.reports[0].input_digest != ""


@pytest.mark.parametrize("trials", [2.0, 2.5, True, "2"])
def test_run_ensemble_refuses_trials_that_are_not_integers(trials):
    ens = EnsembleSpec(kind="shift_family", size=4, seed=9)
    with pytest.raises(HypothesisViolation, match="trials must be an integer >= 1"):
        run_ensemble(by_id("E2"), ens, trials, CTX)


def test_run_ensemble_takes_numpy_integer_trials():
    ens = EnsembleSpec(kind="shift_family", size=4, seed=9)
    run = run_ensemble(by_id("E2"), ens, np.int64(2), CTX)
    assert run.to_json() == run_ensemble(by_id("E2"), ens, 2, CTX).to_json()
    assert type(run.summary["trials"]) is int


def _numpy_params(v):
    """The param with every int an ``np.int64`` and every float an
    ``np.float64``, inside sequences too."""
    if isinstance(v, (list, tuple)):
        return type(v)(_numpy_params(x) for x in v)
    if isinstance(v, bool):
        return v
    return np.int64(v) if isinstance(v, int) else np.float64(v) if isinstance(v, float) else v


@pytest.mark.parametrize("cid", ["F4", "F8", "F11", "E6", "E8", "E19"])
def test_numpy_scalar_params_give_the_report_of_python_numbers(cid):
    """``np.int64`` and ``np.float64`` params, scalar or in a sequence (E19's
    permutations), pass the hypothesis and give report JSON byte-identical
    to the same inputs with Python numbers."""
    spec = by_id(cid)
    ens = EnsembleSpec(kind="dense_uniform" if cid[0] == "F" else "shift_family", seed=42)
    for trial in range(3):
        inputs = spec.sample(rng_for(ens, trial, cid), ens)
        numpy_inputs = dataclasses.replace(
            inputs, params={k: _numpy_params(v) for k, v in inputs.params.items()})
        assert any(isinstance(v, np.generic) for v in numpy_inputs.params.values())
        want = evaluate_chain(spec, inputs, CTX, trial).to_json()
        got = evaluate_chain(spec, numpy_inputs, CTX, trial).to_json()
        assert json.dumps(got, allow_nan=False) == json.dumps(want, allow_nan=False)


def test_a_float32_param_builds_with_the_float64_its_report_records():
    """A ``np.float32`` alpha builds with the float64 value that its report
    records, so the report reproduces from its own JSON: E8 at seed 42
    gives the report JSON of ``float(np.float32(alpha))``."""
    spec = by_id("E8")
    ens = EnsembleSpec(kind="shift_family", seed=42)
    for trial in range(2):
        inputs = spec.sample(rng_for(ens, trial, "E8"), ens)
        alpha = np.float32(inputs.params["alpha"])
        want = dataclasses.replace(inputs, params={**inputs.params, "alpha": float(alpha)})
        got = dataclasses.replace(inputs, params={**inputs.params, "alpha": alpha})
        assert json.dumps(evaluate_chain(spec, got, CTX, trial).to_json(), allow_nan=False) == \
            json.dumps(evaluate_chain(spec, want, CTX, trial).to_json(), allow_nan=False)


def test_report_configs_keep_their_keys_and_values():
    """Reports record the fixed bracket tolerance, norm space and weight-law
    ranges next to the settable values, in this key order."""
    assert list(EvalContext().to_json().items()) == [
        ("finite_tol", 1e-9), ("ess_tol", 1e-6), ("rho_tol", 1e-10), ("set_m_max", 1),
        ("space", "l2")]
    assert list(EvalContext(finite_tol=0.0, ess_tol=2.5).to_json().items()) == [
        ("finite_tol", 0.0), ("ess_tol", 2.5), ("rho_tol", 1e-10), ("set_m_max", 1),
        ("space", "l2")]
    ens = EnsembleSpec(kind="shift_family", size=5, density=0.25, seed=7)
    assert list(ens.to_json().items()) == [
        ("kind", "shift_family"), ("size", 5), ("density", 0.25), ("seed", 7),
        ("c_range", [0.5, 2.0]), ("a_range", [-0.4, 1.0])]
    assert [f.name for f in dataclasses.fields(EvalContext)] == [
        "finite_tol", "ess_tol"]
    assert [f.name for f in dataclasses.fields(EnsembleSpec)] == [
        "kind", "size", "density", "seed"]


@pytest.mark.parametrize("kwargs", [
    {"finite_tol": float("nan")}, {"finite_tol": float("inf")}, {"finite_tol": -1e-9},
    {"finite_tol": "1e-9"}, {"finite_tol": True}, {"ess_tol": float("nan")},
    {"ess_tol": -1.0},
])
def test_eval_context_refuses_unusable_settings(kwargs):
    with pytest.raises(DomainError, match=next(iter(kwargs))):
        EvalContext(**kwargs)


@pytest.mark.parametrize("kwargs,match", [
    ({"size": 2.5}, "ensemble size must be an integer >= 1"),
    ({"size": "4"}, "ensemble size must be an integer >= 1"),
    ({"size": True}, "ensemble size must be an integer >= 1"),
    ({"size": 0}, "ensemble size must be an integer >= 1"),
    ({"density": "0.3"}, r"density must be a real in \[0, 1\]"),
    ({"density": None}, r"density must be a real in \[0, 1\]"),
    ({"density": float("nan")}, r"density must be a real in \[0, 1\]"),
    ({"density": 1.5}, r"density must be a real in \[0, 1\]"),
])
def test_ensemble_spec_refuses_a_size_or_density_of_the_wrong_type(kwargs, match):
    with pytest.raises(DomainError, match=match):
        EnsembleSpec(**kwargs)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
def test_ensemble_spec_refuses_a_seed_numpy_cannot_use(seed):
    with pytest.raises(DomainError, match="ensemble seed must be an integer >= 0"):
        EnsembleSpec(seed=seed)
