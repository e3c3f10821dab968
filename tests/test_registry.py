import functools
import importlib.util
import inspect
import json
from fractions import Fraction
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
    OperatorSet,
    RationalFormula,
    diagonal_family,
    evaluate_chain,
    identity_family,
    shift_family,
)
from specrad import jsr, spectral
from specrad.chains import CHAIN, Part
from specrad.ensembles import rng_for
from specrad.errors import BudgetExceededError, DomainError, SpecradError
from specrad.families import _pow0
from specrad.jsr import gen_radius_lb, norm_level_max
from specrad.registry import _chain, _ess_term, _Sets, by_id, catalog_json, registry
from specrad.sets import set_hadamard_power, set_power, set_product
from specrad.spectral import _ROUND_GUARD, Bracket, operator_norm, spectral_radius

CTX = EvalContext()
reg = importlib.import_module("specrad.registry")  # the package's ``registry`` is the function


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
    tools/record_sample_digests.py recorded, and each trial's report has
    the recorded skeleton: part names and kinds, term labels, method tags
    and notes."""
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


def test_a_chain_with_matrices_refuses_non_square_ones():
    spec = by_id("F9")
    wide = tuple(FiniteMatrix([[1.0, 2.0, 0.5], [0.5, 1.0, 2.0]]) for _ in range(2))
    inputs = ChainInputs(matrices=wide, params={"m": 2, "alphas": (0.5, 0.5), "t": 2.0})
    assert spec.hypothesis(inputs) == "matrices must be square"
    with pytest.raises(HypothesisViolation, match="matrices must be square"):
        evaluate_chain(spec, inputs, CTX)


def test_e12_refuses_a_second_family_that_is_not_diagonal():
    spec = by_id("E12")
    ens = EnsembleSpec(kind="shift_family", seed=5)
    good = spec.sample(rng_for(ens, 0, "E12"), ens)
    assert spec.hypothesis(good) is None
    t, _ = good.families
    bad = ChainInputs(families=(t, t), family_sets=good.family_sets, params=good.params)
    message = "second family must be diagonal (it plays the normal operator)"
    assert spec.hypothesis(bad) == message
    with pytest.raises(HypothesisViolation, match=r"diagonal \(it plays"):
        evaluate_chain(spec, bad, CTX)


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


@pytest.mark.parametrize("power", [1.0, 2.0])
def test_essential_set_term_encloses_the_largest_exact_gamma(power):
    """Both ends of an essential set term come from the largest gamma over the
    set, also on multi-band families: two bands of weights i / (q i) give
    gamma = 2/q exactly, and {2/10, 2/7} has the largest value 2/7."""
    fams, gammas = [], []
    for q in (10, 7):
        w = RationalFormula([0, 1], [0, q])
        fams.append(diagonal_family(w) + shift_family(w))
        gammas.append(2 * Fraction(w.p[-1]) / Fraction(w.q[-1]))
    exact = max(gammas) ** int(power)
    b = _ess_term([(OperatorSet(fams), power)])
    assert Fraction(b.lo) <= exact <= Fraction(b.hi)
    assert abs(Fraction(b.lo) - exact) <= Fraction(1e-12) * exact


def _one_term_at_a_time(factors, u):
    """A product of finite set radii as each term was bounded before the
    batched pass: every factor by ``norm_level_max``, then ``gen_radius_lb``."""
    return _bounded_in_turn([(S, p, max(1, u // sigma)) for S, p, sigma in factors])


def _bounded_in_turn(factors):
    """``_one_term_at_a_time`` of (set, power, depth) factors."""
    hi = 1.0
    lo = 1.0
    for S, p, d in factors:
        hi *= _pow0(norm_level_max(S, d), p / d)
        lo *= _pow0(gen_radius_lb(S, d), p)
    hi *= 1 + _ROUND_GUARD
    return Bracket(min(lo, hi), hi, "set-depth-ub/gen-lb")


def _outcome(run):
    """The labelled brackets' bits, or the type and message of the error raised."""
    try:
        return [(label, b.lo.hex(), b.hi.hex(), b.method, b.converged) for label, b in run()]
    except SpecradError as exc:
        return type(exc).__name__, str(exc)


def _random_set(rng, n, size):
    scale = 2.0 ** float(rng.choice([-600, 0, 150, 600]))
    density = 1.0 if rng.random() < 0.5 else 0.3
    return OperatorSet([FiniteMatrix(np.asfortranarray(a) if rng.random() < 0.3 else a)
                        for a in scale * rng.random((size, n, n))
                        * (rng.random((size, n, n)) < density)])


def test_fin_terms_are_the_terms_bounded_one_at_a_time():
    """A build's set terms, resolved in its chain's one pass, give each
    term's bracket bit for bit, and on inputs that fail the build raises
    what bounding the terms in turn raises first: terms built one after
    another from set operations on dense, sparse, scaled (2**-600 to
    2**600), Fortran-ordered and repeated sets, failing by a word level
    past the cap, a set operation past its element cap, a product or a
    power beyond the float range."""
    rng = np.random.default_rng(71)
    outcomes = set()
    for _ in range(60):
        n = int(rng.integers(1, 4))
        sets = [_random_set(rng, n, int(rng.choice([1, 2, 3, 17, 70]))) for _ in range(3)]
        recipes = []
        for _ in range(int(rng.integers(1, 5))):
            a, b = (sets[int(i)] for i in rng.integers(0, 3, 2))
            op = int(rng.integers(0, 4))
            build = [lambda a=a: a, lambda a=a, b=b: set_product(a, b),
                     lambda a=a: set_power(a, 3), lambda a=a: set_hadamard_power(a, 3.0)][op]
            sigma = 2 if op == 1 else 3 if op == 2 else 1
            p, u = float(rng.choice([0.5, 1.0, 4.0])), int(rng.integers(1, 4))
            recipes.append((build, [(None, p, sigma)] + [(a, 1.0, 1)] * int(rng.integers(0, 2)), u))

        def factors(build, spec):
            return [(build() if S is None else S, p, sigma) for S, p, sigma in spec]

        want = _outcome(lambda: [(str(j), _one_term_at_a_time(factors(build, spec), u))
                                 for j, (build, spec, u) in enumerate(recipes)])

        def chain_build(inputs):
            return [Part("terms", CHAIN, [(str(j), _Sets(factors(build, spec), u))
                                          for j, (build, spec, u) in enumerate(recipes)])]

        chain = _chain("X", "", "finite", "", "", {}, (), None, chain_build)
        got = _outcome(lambda: chain.build(ChainInputs())[0].terms)
        assert got == want
        outcomes.add(want[1] if isinstance(want, tuple) else "ok")
    for seen in ("ok", "word level enumeration exceeded its cap", "elements (cap 200000)",
                 "a word product exceeds the float range",
                 "matrix product exceeds the float range",
                 "entrywise power exceeds the float range", "** 4.0 exceeds the float range"):
        assert any(seen in o for o in outcomes), seen


def _f14_inputs(p, q, beta=0.5):
    return ChainInputs(matrix_sets=(OperatorSet(p), OperatorSet(q)), params={"beta": beta})


def test_a_term_past_the_level_cap_reports_before_a_later_set_past_its_cap():
    """F14 on two sets of 22: its first term's depth-2 level of 484**2
    products passes ``_MAX_LEVEL``, and its second term's set of 484**2
    elements would pass ``MAX_SET_ELEMENTS``.  The first term is bounded
    before the second is built, so the build part names the level cap."""
    rng = np.random.default_rng(73)
    p, q = ([FiniteMatrix(rng.random((2, 2)) + 0.1) for _ in range(22)] for _ in range(2))
    rep = evaluate_chain(by_id("F14"), _f14_inputs(p, q), CTX)
    assert rep.verdict == "inconclusive"
    assert [(part.name, part.note) for part in rep.parts] == \
        [("build", "word level enumeration exceeded its cap")]


def test_an_overflowing_word_product_raises_before_a_later_set_overflows():
    """F14 on {P} and {Q} with entries 1e80: (P o Q)^2 leaves the float
    range in the first term, and PQ o QP, the second term's set, would too.
    The first term is bounded before the second is built, so the error is
    the word product's."""
    big = [FiniteMatrix(np.full((2, 2), 1e80))]
    with pytest.raises(DomainError, match="^a word product exceeds the float range$"):
        evaluate_chain(by_id("F14"), _f14_inputs(big, big), CTX)


def test_the_pass_raises_the_first_error_in_drawn_order():
    """The one pass raises the error of the first term drawn that fails: a
    radius or an l2 norm beyond the float range drawn before a set term
    past the level cap raises its estimator's error, and the set term drawn
    first raises the cap's, which ``evaluate_chain`` reports as an
    inconclusive build part.  A term drawn before a failing build step
    raises before the build's error."""
    big = FiniteMatrix(np.full((3, 3), 1.5 * 2.0 ** 1022))  # radius and norm 4.5 * 2**1022
    wide = OperatorSet([FiniteMatrix(np.eye(2) + k) for k in range(70)])  # 4,900 words at depth 2
    leaves = {"spectral radius": lambda: reg._Rho(big), "operator norm": lambda: reg._Norm(big)}

    def chain(*draws):
        def build(inputs):
            terms = [(str(j), draw()) for j, draw in enumerate(draws)]
            return [Part("terms", CHAIN, terms)]

        return _chain("X", "", "finite", "", "", {}, (), None, build)

    def capped():
        return _Sets([(wide, 1.0, 1)], 2)

    def refused():
        raise BudgetExceededError("a build step past its cap")

    for what, leaf in leaves.items():
        for after in (capped, refused):
            with pytest.raises(DomainError, match=f"^{what} exceeds the float range$"):
                chain(leaf, after).build(ChainInputs())
        spec = chain(capped, leaf)
        with pytest.raises(BudgetExceededError, match="^word level enumeration exceeded its cap$"):
            spec.build(ChainInputs())
        rep = evaluate_chain(spec, ChainInputs(), CTX)
        assert rep.verdict == "inconclusive"
        assert [(part.name, part.note) for part in rep.parts] == \
            [("build", "word level enumeration exceeded its cap")]


_FINITE = [f"F{i}" for i in range(1, 17)]


@pytest.mark.parametrize("cid,calls", [(cid, 0 if cid == "F12" else 1) for cid in _FINITE])
def test_set_terms_share_one_radius_batch(monkeypatch, cid, calls):
    """Each finite chain's build makes one ``_spectral_radii`` call for all
    its terms (matrix radii, norms, set terms and F13's sup |T|), and F12,
    whose one part is entrywise, makes none.  On the scaled inputs of
    ``test_one_pass_builds_are_the_eager_replay`` a build that raises makes
    at most one call too: no term is evaluated twice."""
    count = [0]
    real = spectral._spectral_radii

    def counted(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    for module in (spectral, jsr):
        monkeypatch.setattr(module, "_spectral_radii", counted)
    spec = by_id(cid)
    for kind in ("dense_uniform", "sparse_bernoulli"):
        ens = EnsembleSpec(kind=kind, seed=13)
        for trial in range(4):
            inputs = spec.sample(rng_for(ens, trial, cid), ens)
            count[0] = 0
            spec.build(inputs)
            assert count[0] == calls, (kind, trial)
    for j, scaled in enumerate(x for s, x in _scaled_cases() if s is spec):
        count[0] = 0
        try:
            spec.build(scaled)
        except SpecradError:
            assert count[0] <= 1, j
        else:
            assert count[0] == calls, j


def test_a_set_term_forms_a_levels_gram_matrices_in_one_product(monkeypatch):
    """An F14 build makes one ``_gram`` call per walk, on the walk's whole
    deepest level as one stack, not one call per array.  Its five distinct
    (set, depth) walks end in levels of 16 (P o Q at depth 2, PQ o QP at
    depth 1) and of 4 (PQ, PQ^(1/b) and QP^(1/(1-b)) at depth 1) products."""
    calls = []
    real = spectral._gram
    monkeypatch.setattr(spectral, "_gram", lambda s: calls.append(len(s)) or real(s))
    spec = by_id("F14")
    ens = EnsembleSpec(kind="dense_uniform", seed=13)
    for trial in range(4):
        calls.clear()
        spec.build(spec.sample(rng_for(ens, trial, "F14"), ens))
        assert sorted(calls) == [4, 4, 4, 16, 16], trial


def test_f11_walks_each_set_once_when_n_is_one(monkeypatch):
    """S**1 is S, so at n = 1 F11's n-power terms reuse the depth-1 sets
    themselves and the pass walks m + 4 (set, depth) pairs: the mean, the m
    sets, the uniform mean, the product and the t-th power.  At n = 2 the
    n-power mean and (S1**2)^(t) are walks of their own, m + 6 in all."""
    walks = []
    real = jsr._necklace_walk
    monkeypatch.setattr(jsr, "_necklace_walk", lambda *a, **k: walks.append(1) or real(*a, **k))
    spec = by_id("F11")
    ens = EnsembleSpec(kind="dense_uniform", seed=13)
    seen = set()
    for trial in range(12):
        inputs = spec.sample(rng_for(ens, trial, "F11"), ens)
        m, n = inputs.params["m"], inputs.params["n"]
        walks.clear()
        spec.build(inputs)
        assert len(walks) == m + (4 if n == 1 else 6), (trial, m, n)
        seen.add(n)
    assert seen == {1, 2}


def _parts(parts):
    """Each part's terms as bits: a bracket's ends, method and flag, or an
    entrywise term's matrix bytes and layout."""
    out = []
    for part in parts:
        terms = [(label, b.lo.hex(), b.hi.hex(), b.method, b.converged)
                 if isinstance(b, Bracket) else
                 (label, b.a.tobytes(), b.a.flags.c_contiguous, b.a.flags.f_contiguous)
                 for label, b in part.terms]
        out.append((part.name, part.kind, terms))
    return out


def _build_outcome(spec, inputs):
    try:
        return _parts(spec.build(inputs))
    except SpecradError as exc:
        return type(exc).__name__, str(exc)


def _rescaled(inputs, scale, fortran):
    """The inputs with every matrix and set element scaled, in Fortran order
    when asked."""
    def one(m):
        a = m.a * scale
        return FiniteMatrix(np.asfortranarray(a) if fortran else a)

    return ChainInputs(matrices=tuple(one(m) for m in inputs.matrices),
                       matrix_sets=tuple(OperatorSet([one(m) for m in s])
                                         for s in inputs.matrix_sets),
                       params=inputs.params)


class _EagerDraws:
    """Stands in for ``registry._DRAWN`` so that a build evaluates each term
    as it draws it, as builds did before terms became data: a leaf by its
    public estimator, a node from the values it folds."""

    def set(self, drawn):
        self.drawn = drawn

    def reset(self, token):
        pass

    def get(self):
        return self

    def append(self, term):
        self.drawn.append(term)
        if type(term) is reg._Rho:
            term.value = spectral_radius(term.m)
        elif type(term) is reg._Norm:
            term.value = operator_norm(term.m)
        elif type(term) is _Sets:
            term.value = _bounded_in_turn(term.factors)
        else:
            term.value = term.fold(*[t.value for t in term.terms])


@functools.cache
def _scaled_cases():
    """(spec, inputs) of every finite chain on dense and sparse inputs scaled
    by 2**-600 to 2**1023, C- or Fortran-ordered, and F4 on one matrix whose
    radius is past the float range."""
    rng = np.random.default_rng(83)
    cases = []
    for cid in _FINITE:
        spec = by_id(cid)
        for kind in ("dense_uniform", "sparse_bernoulli"):
            ens = EnsembleSpec(kind=kind, seed=29)
            for trial, power in enumerate([-600, 0, 0, 300, 500, 600, 1000, 1021]):
                sampled = spec.sample(rng_for(ens, trial, cid), ens)
                scale = 2.0 ** power * (1 + rng.random())
                cases.append((spec, _rescaled(sampled, scale, rng.random() < 0.4)))
    # a radius past the float range with no product before it: 4.5 * 2**1022
    big = FiniteMatrix(np.full((3, 3), 1.5 * 2.0 ** 1022))
    cases.append((by_id("F4"), ChainInputs(matrices=(big,), params={"m": 1})))
    return cases


def test_one_pass_builds_are_the_eager_replay(monkeypatch):
    """Every finite chain's one-pass build gives the parts of the same build
    evaluated eagerly (each leaf by its public estimator and each node by
    ``Bracket.power``/``scaled``/``_bprod``, as it is drawn) bit for bit,
    or raises the same first error: on dense and sparse inputs scaled by
    2**-600 to 2**1023, C- or Fortran-ordered, so that radii, products,
    entrywise powers and bracket powers leave the float range."""
    outcomes = set()
    for spec, inputs in _scaled_cases():
        got = _build_outcome(spec, inputs)
        with monkeypatch.context() as m:
            m.setattr(reg, "_DRAWN", _EagerDraws())
            m.setattr(reg, "_resolve", lambda drawn: None)
            want = _build_outcome(spec, inputs)
        assert got == want, spec.id
        outcomes.add(want[1] if isinstance(want, tuple) else "ok")
    for seen in ("ok", "spectral radius exceeds the float range",
                 "matrix product exceeds the float range",
                 "entrywise power exceeds the float range",
                 "bracket endpoints must be finite"):
        assert seen in outcomes, (seen, sorted(outcomes))


@pytest.mark.parametrize("below", [0.9e-12, 1e-13])
def test_an_alpha_just_below_its_bound_is_refused_or_evaluated(below):
    """Every ``_Alpha`` param of every chain, set just below its bound, gives
    a ``HypothesisViolation`` or a report, never a ``DomainError`` from the
    ``WeightVector`` the build makes of it: the hypothesis accepts exactly
    the exponents whose weights pass.  The trials draw m from 2 to 4."""
    ens = EnsembleSpec(kind="shift_family", seed=5)
    seen = set()
    for spec in registry():
        declared = inspect.getclosurevars(spec.hypothesis).nonlocals["params"]
        for p in (p for p in declared if isinstance(p, reg._Alpha)):
            for trial in range(4):
                good = spec.sample(rng_for(ens, trial, spec.id), ens)
                params = {**good.params, p.name: p.bound(good.params) - below}
                inputs = ChainInputs(good.matrices, good.families, good.matrix_sets,
                                     good.family_sets, params)
                try:
                    evaluate_chain(spec, inputs, CTX)
                except HypothesisViolation:
                    pass
                seen.add((spec.id, p.name, params.get("m")))
    assert {("E8", "alpha"), ("E11", "alpha"), ("E15", "alpha"), ("E15", "alpha2"),
            ("E17", "alpha"), ("E18", "alpha"), ("E19", "alpha"), ("E20", "alpha"),
            ("E21", "alpha")} == {key[:2] for key in seen}
    assert ("E20", "alpha", 4) in seen
