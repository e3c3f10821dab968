import importlib.util
import inspect
import json
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from specrad import (
    ChainInputs,
    EnsembleSpec,
    EvalContext,
    FiniteMatrix,
    HypothesisViolation,
    evaluate_chain,
    identity_family,
)
from specrad.ensembles import rng_for
from specrad.registry import by_id, catalog_json, registry

CTX = EvalContext()


def test_catalog_structure():
    specs = registry()
    assert len(specs) >= 37
    ids = [c.id for c in specs]
    assert len(set(ids)) == len(ids)
    assert "F2" in ids and "E10" in ids and "E21" in ids
    assert [c.id for c in specs[:16]] == [f"F{i}" for i in range(1, 17)]
    assert [c.id for c in specs[16:]] == [f"E{i}" for i in range(1, 22)]
    levels = {c.id: c.level for c in specs}
    assert levels["F7"] == "finite" and levels["E7"] == "essential"


def test_catalog_export_fields():
    for entry in catalog_json():
        assert set(entry) == {"id", "title", "level", "description",
                              "hypothesis", "arity"}
        assert entry["level"] in ("finite", "essential")
        assert entry["description"]


def test_catalog_matches_pinned_fixture():
    """The catalog is byte-identical to the committed fixture."""
    fixture = Path(__file__).parent / "fixtures" / "catalog.json"
    assert json.dumps(catalog_json(), indent=2) + "\n" == fixture.read_text(encoding="utf-8")


def test_operand_counts_must_match_exactly():
    spec = by_id("F9")
    mats = tuple(FiniteMatrix([[1.0, 2.0], [0.5, 1.0]]) for _ in range(3))
    params = {"m": 2, "alphas": (0.5, 0.5), "t": 2.0}
    assert spec.hypothesis(ChainInputs(matrices=mats[:2], params=params)) is None
    extra = ChainInputs(matrices=mats, params=params)
    assert "exactly 2 matrices, got 3" in spec.hypothesis(extra)
    with pytest.raises(HypothesisViolation):
        evaluate_chain(spec, extra, CTX)
    # an operand kind the chain does not declare must be empty
    stray = ChainInputs(matrices=mats[:2], families=(identity_family(),), params=params)
    assert "exactly 0 families, got 1" in spec.hypothesis(stray)


@pytest.mark.parametrize("cid,params,message", [
    ("F4", {"m": True}, "integer m >= 1"),             # a bool is not an integer
    ("F4", {"m": 1.0}, "integer m >= 1"),              # nor is an integral float
    ("F4", {}, "integer m >= 1, got None"),            # a declared param is required
    ("F10", {"t": float("nan")}, "real t >= 1"),       # reals must be finite
    ("F14", {"beta": 0.0}, "real beta in (0, 1)"),     # open interval
    ("E7", {"alpha": 1.0}, "real alpha > 1"),          # strict lower bound
    ("E16", {"m": 4}, "odd integer m >= 3"),
    ("E20", {"alpha": 0.1}, "real alpha >= 2/m"),
    ("E21", {"nu": (0, 0, 0)}, "nu: a permutation of 0..m-1"),
    ("E6", {"alpha": 0.25, "beta": 0.5}, "alpha + beta >= 1"),
    ("F10", {"t": 10 ** 400}, "real t >= 1"),          # reals must fit in a float
    ("F9", {"alphas": (10 ** 400,)}, "alphas: m positive weights"),
    ("E8", {"alpha": 10 ** 400}, "real alpha >= 1/m"),
])
def test_typed_params_reject(cid, params, message):
    spec = by_id(cid)
    kind = "dense_uniform" if cid.startswith("F") else "shift_family"
    ens = EnsembleSpec(kind=kind, seed=5)
    good = spec.sample(rng_for(ens, 0, cid), ens)
    assert spec.hypothesis(good) is None
    bad = ChainInputs(good.matrices, good.families, good.matrix_sets, good.family_sets,
                      {**good.params, **params} if params else {})
    assert message in spec.hypothesis(bad)


def _signed_params(spec):
    """The names a chain's build takes after its inputs.

    ``ChainSpec.build`` is ``_chain``'s adapter, which closes over the
    declared build; a Zhan build takes ``**params`` and passes them on to
    its middle terms, which take (a, b, ab) first.
    """
    build = inspect.getclosurevars(spec.build).nonlocals["build"]
    names = list(inspect.signature(build).parameters)[1:]
    if names == ["params"]:
        middle = inspect.getclosurevars(build).nonlocals["middle_terms"]
        names = list(inspect.signature(middle).parameters)[3:]
    return names


def test_builds_sign_for_exactly_their_declared_params():
    for spec in registry():
        assert _signed_params(spec) == spec.arity.get("params", []), spec.id
        assert "__code__" in dir(spec.build), spec.id  # the tracer reads it


def test_samplers_draw_the_recorded_inputs():
    """Every chain's sampler draws, at seed 42, trials 0-4 and each ensemble
    kind of its level, the inputs whose digests
    tools/record_sample_digests.py recorded."""
    path = Path(__file__).resolve().parents[1] / "tools" / "record_sample_digests.py"
    loader = importlib.util.spec_from_file_location("record_sample_digests", path)
    recorder = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(recorder)
    fixture = Path(__file__).parent / "fixtures" / "sample_digests.json"
    expected = json.loads(fixture.read_text(encoding="utf-8"))
    assert list(expected) == [spec.id for spec in registry()]
    got = recorder.digests()
    for cid, per_kind in expected.items():
        assert got[cid] == per_kind, cid


def test_e19_rejects_odd_m():
    spec = by_id("E19")
    rng = rng_for(EnsembleSpec(kind="shift_family"), 0, "E19")
    inputs = spec.sample(rng, EnsembleSpec(kind="shift_family"))
    assert spec.hypothesis(inputs) is None
    bad_params = dict(inputs.params)
    bad_params["m"] = 3
    bad = ChainInputs(family_sets=inputs.family_sets, params=bad_params)
    assert spec.hypothesis(bad) is not None


def test_soundness_mini_sweep():
    """Every chain over every compatible ensemble kind: zero failures."""
    for spec in registry():
        kinds = ("dense_uniform", "sparse_bernoulli") if spec.level == "finite" \
            else ("shift_family", "diagonal_family", "shift_plus_rank")
        for kind in kinds:
            ens = EnsembleSpec(kind=kind, size=4, seed=123)
            from specrad import run_ensemble
            run = run_ensemble(spec, ens, 5, CTX)
            assert run.summary["fail"] == 0, (spec.id, kind, run.summary)


def _singleton_family_sets(rng, ens, m):
    from specrad.ensembles import sample_family
    from specrad.sets import OperatorSet
    return tuple(OperatorSet([sample_family(rng, ens, offset=1)]) for _ in range(m))


@pytest.mark.parametrize("cid,m", [("E19", 2), ("E20", 2), ("E21", 2), ("E21", 3)])
def test_permutation_coverage_exhaustive(cid, m):
    spec = by_id(cid)
    ens = EnsembleSpec(kind="shift_family", seed=31)
    rng = rng_for(ens, 0, f"{cid}-perm")
    sets = _singleton_family_sets(rng, ens, m)
    alpha = 2.0 / m if cid == "E20" else 1.0 / m
    for tau in permutations(range(m)):
        for nu in permutations(range(m)):
            params = {"m": m, "alpha": alpha, "tau": tau, "nu": nu}
            rep = evaluate_chain(spec, ChainInputs(family_sets=sets, params=params), CTX)
            assert rep.verdict == "pass", (cid, m, tau, nu)


@pytest.mark.parametrize("cid,m", [("E19", 4), ("E19", 6), ("E21", 5)])
def test_permutation_coverage_sampled(cid, m):
    spec = by_id(cid)
    ens = EnsembleSpec(kind="shift_plus_rank", seed=32)
    rng = rng_for(ens, 0, f"{cid}-perm-sampled")
    sets = _singleton_family_sets(rng, ens, m)
    for _ in range(8):
        tau = tuple(int(x) for x in rng.permutation(m))
        nu = tuple(int(x) for x in rng.permutation(m))
        params = {"m": m, "alpha": 1.0 / m, "tau": tau, "nu": nu}
        rep = evaluate_chain(spec, ChainInputs(family_sets=sets, params=params), CTX)
        assert rep.verdict == "pass", (cid, m, tau, nu)


def test_slack_nonnegative_on_valid_inputs():
    """No-fail form of the ordering invariant: lo_i <= next hi scaled."""
    from specrad import run_ensemble
    for cid in ("F5", "F9", "E2", "E8"):
        ens_kind = "dense_uniform" if cid.startswith("F") else "shift_family"
        run = run_ensemble(by_id(cid), EnsembleSpec(kind=ens_kind, seed=77), 5, CTX)
        for rep in run.reports:
            for part in rep.parts:
                assert all(s >= 0 for s in part.slacks), (cid, part)


def test_strict_inequalities_on_multiband_inputs():
    """Two-band inputs separate the chain terms, guarding term orientation."""
    import pytest

    from specrad import Constant, identity_family, shift_family
    from specrad.sets import OperatorSet

    two = identity_family() + shift_family(Constant(1.0))  # noncompactness 2
    rep = evaluate_chain(by_id("E1"),
                         ChainInputs(families=(two, two), params={"m": 1, "t": 2.0}),
                         CTX)
    assert rep.verdict == "pass"
    gp = {p.name: p for p in rep.parts}["gamma-power"]
    assert gp.rows[0].hi == pytest.approx(2.0)  # sum of squared band limits
    assert gp.rows[1].hi == pytest.approx(4.0)  # squared sum
    assert gp.slacks[0] > 1.0

    rep = evaluate_chain(by_id("E2"),
                         ChainInputs(families=(two, identity_family()),
                                     params={"m": 2, "alphas": (1.0, 1.0)}),
                         CTX)
    assert rep.verdict == "pass"
    gm = {p.name: p for p in rep.parts}["gamma-mean"]
    assert gm.rows[0].hi == pytest.approx(1.0)  # only the diagonal bands meet
    assert gm.rows[1].hi == pytest.approx(2.0)
    assert gm.slacks[0] > 0.5

    sets = (OperatorSet([two]), OperatorSet([identity_family()]))
    rep = evaluate_chain(by_id("E9"),
                         ChainInputs(family_sets=sets,
                                     params={"beta": 0.5, "beta_open": 0.5}),
                         CTX)
    assert rep.verdict == "pass"
    assert any(s > 0.5 for p in rep.parts for s in p.slacks)


def test_gamma_multiplicative_on_band_limit_families():
    """Products multiply the noncompactness exactly on this family class."""
    import numpy as np
    import pytest

    from helpers import random_family
    from specrad import hausdorff_mnc

    rng = np.random.default_rng(321)
    for _ in range(15):
        f = random_family(rng, multiband=True)
        g = random_family(rng, multiband=True)
        assert hausdorff_mnc(f @ g).hi == pytest.approx(
            hausdorff_mnc(f).hi * hausdorff_mnc(g).hi, rel=1e-12, abs=1e-12)
