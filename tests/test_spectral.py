import math

import numpy as np
import pytest

from helpers import perron_root_charpoly, random_family
from specrad import (
    Bracket,
    Constant,
    EventuallyConstant,
    FiniteMatrix,
    RationalFormula,
    diagonal_family,
    essential_spectral_radius,
    finite_rank_family,
    gamma_via_star,
    hausdorff_mnc,
    identity_family,
    operator_norm,
    oracle_ess_radius,
    shift_family,
    spectral_radius,
)
from specrad.errors import DomainError, ShapeMismatchError
from specrad.spectral import _ROUND_GUARD

GOLDEN_SQUARED = (3 + math.sqrt(5)) / 2  # Perron root of [[2,1],[1,1]]


def test_bracket_invariants():
    b = Bracket(1.0, 2.0, "x")
    assert b.width == 1.0 and b.mid == 1.5
    assert b.contains(1.5) and not b.contains(2.5)
    assert b.power(2.0).hi == 4.0
    assert b.scaled(3.0).lo == 3.0
    assert b.overlaps(Bracket(1.9, 5.0, "y"))
    assert not b.overlaps(Bracket(2.5, 3.0, "y"))
    with pytest.raises(DomainError):
        Bracket(2.0, 1.0, "bad")
    with pytest.raises(DomainError):
        Bracket(-1.0, 1.0, "bad")


def test_spectral_radius_examples():
    assert spectral_radius(FiniteMatrix([[0, 1], [1, 0]])).contains(1.0)
    tri = spectral_radius(FiniteMatrix([[1, 1], [0, 1]]))
    assert tri.contains(1.0) and tri.width <= 1e-10
    b = spectral_radius(FiniteMatrix([[2, 1], [1, 1]]))
    assert b.contains(GOLDEN_SQUARED)
    assert b.width <= 1e-10 * max(1.0, b.hi)
    assert spectral_radius(FiniteMatrix.zeros(3)).hi == 0.0
    with pytest.raises(ShapeMismatchError):
        spectral_radius(FiniteMatrix([[1, 2, 3]]))


def test_spectral_radius_reducible_tight():
    # block-triangular: radius is the max over diagonal blocks
    a = FiniteMatrix([[2.0, 5.0, 1.0], [0.0, 0.5, 3.0], [0.0, 0.0, 1.5]])
    b = spectral_radius(a)
    assert b.contains(2.0) and b.width <= 1e-9


def test_spectral_radius_vs_charpoly_oracle():
    rng = np.random.default_rng(11)
    for k in range(50):
        n = 2 + (k % 3)
        a = rng.random((n, n))
        if k % 4 == 0:
            a = a * (rng.random((n, n)) < 0.5)
        b = spectral_radius(FiniteMatrix(a))
        root = perron_root_charpoly(a)
        assert b.lo - 1e-10 * max(1, b.hi) <= root <= b.hi + 1e-10 * max(1, b.hi)


def test_spectral_radius_imprimitive_cycle():
    # weighted 3-cycle: Perron root is the geometric mean of the weights
    a = FiniteMatrix([[0, 0.3, 0], [0, 0, 1.7], [0.9, 0, 0]])
    b = spectral_radius(a)
    assert b.contains((0.3 * 1.7 * 0.9) ** (1 / 3), slack=1e-10)
    assert b.width <= 1e-9


def test_operator_norms():
    assert operator_norm(FiniteMatrix([[1, 0], [0, 2]]), "l2").contains(2.0)
    ones = operator_norm(FiniteMatrix([[1, 1], [1, 1]]), "l2")
    assert ones.contains(2.0) and ones.width <= 1e-9
    assert operator_norm(FiniteMatrix([[1, 2], [3, 4]]), "l1").contains(6.0)
    assert operator_norm(FiniteMatrix([[1, 2], [3, 4]]), "linf").contains(7.0)
    with pytest.raises(DomainError):
        operator_norm(FiniteMatrix([[1]]), "l3")


def test_entry_sup():
    assert FiniteMatrix([[1, 2], [3, 4]]).entry_sup() == 4.0
    assert shift_family(Constant(0.7)).entry_sup() == pytest.approx(0.7)
    d = diagonal_family(RationalFormula([1.0, 1.0], [0.0, 1.0]))
    assert d.entry_sup() == pytest.approx(2.0)


def test_hausdorff_examples():
    compact = hausdorff_mnc(finite_rank_family([[1, 2], [3, 4]]))
    assert compact.hi == 0.0
    assert type(compact.lo) is float and type(compact.hi) is float
    ident = hausdorff_mnc(identity_family())
    assert ident.lo == ident.hi == 1.0
    inv = hausdorff_mnc(diagonal_family(RationalFormula([1.0], [0.0, 1.0])))
    assert inv.hi == 0.0


def test_essential_examples():
    assert essential_spectral_radius(finite_rank_family([[2.0]])).hi == 0.0
    d = essential_spectral_radius(diagonal_family(RationalFormula([1.0, 1.0], [0.0, 1.0])))
    assert d.contains(1.0) and d.width <= 1e-6
    s = essential_spectral_radius(shift_family(Constant(0.7)))
    assert s.contains(0.7) and s.width <= 1e-6


def _power_loop_hi(f, j_max=6):
    """Upper end of the power-loop estimator: min over j <= j_max of gamma(f^j)^(1/j)."""
    hi = math.inf
    power = f
    for j in range(1, j_max + 1):
        g = hausdorff_mnc(power).hi
        hi = min(hi, (math.pow(g, 1.0 / j) if g > 0 else 0.0) * (1.0 + _ROUND_GUARD))
        if g == 0.0:
            break
        power = power @ f
    return hi


def test_essential_upper_end_matches_power_loop():
    # gamma(A^j) = gamma(A)^j on banded families, so no power tightens gamma(A)
    rng = np.random.default_rng(15)
    for _ in range(40):
        f = random_family(rng, multiband=True)
        hi = essential_spectral_radius(f).hi
        ref = _power_loop_hi(f)
        assert ref <= hi <= ref * (1.0 + 4 * 2.0 ** -52)


def test_oracle_examples():
    assert oracle_ess_radius(diagonal_family(EventuallyConstant([1, 9], 3.0))) == 3.0
    withrank = shift_family(Constant(0.7), finite_rank=[[1, 1], [1, 1]])
    assert oracle_ess_radius(withrank) == pytest.approx(0.7)
    assert oracle_ess_radius(diagonal_family(RationalFormula([1.0], [0.0, 1.0]))) == 0.0
    multi = identity_family() + shift_family(Constant(1.0))
    assert oracle_ess_radius(multi) is None
    b = essential_spectral_radius(multi)
    assert b.lo == 0.0 and b.hi >= 2.0 - 1e-9  # honest zero lower end


def test_gamma_via_star_examples():
    assert gamma_via_star(finite_rank_family([[1.0]])).hi == 0.0
    ident = gamma_via_star(identity_family())
    assert ident.contains(1.0, slack=1e-9)
    s = gamma_via_star(shift_family(Constant(0.7)))
    assert s.contains(0.7, slack=1e-9) and s.hi <= 0.7 + 1e-6


def test_gamma_star_cross_check_on_random_families():
    rng = np.random.default_rng(12)
    for _ in range(30):
        f = random_family(rng, multiband=True)
        a = hausdorff_mnc(f)
        b = gamma_via_star(f)
        assert a.overlaps(b, slack=1e-9)


def test_gamma_algebra_consistency():
    rng = np.random.default_rng(13)
    tol = 1e-9
    for _ in range(20):
        f = random_family(rng, multiband=True)
        g = random_family(rng, multiband=True)
        gf, gg = hausdorff_mnc(f), hausdorff_mnc(g)
        assert hausdorff_mnc(f @ g).lo <= gf.hi * gg.hi + tol
        assert hausdorff_mnc(f + g).lo <= gf.hi + gg.hi + tol


def test_gamma_monotone_under_entrywise_domination():
    rng = np.random.default_rng(14)
    for _ in range(10):
        f = random_family(rng, multiband=True)
        g = f + random_family(rng, multiband=True)  # g >= f entrywise
        assert hausdorff_mnc(f).lo <= hausdorff_mnc(g).hi + 1e-9


def test_scale_homogeneity():
    rng = np.random.default_rng(15)
    for _ in range(10):
        f = random_family(rng, multiband=True)
        c = 0.3 + 2.0 * rng.random()
        a, b = hausdorff_mnc(f), hausdorff_mnc(f.scale(c))
        assert b.lo == pytest.approx(c * a.lo, rel=1e-12)
        e1, e2 = essential_spectral_radius(f), essential_spectral_radius(f.scale(c))
        assert e2.hi == pytest.approx(c * e1.hi, rel=1e-9)
    m = FiniteMatrix(np.random.default_rng(16).random((4, 4)))
    c = 1.7
    r1, r2 = spectral_radius(m), spectral_radius(m.scale(c))
    assert r2.mid == pytest.approx(c * r1.mid, rel=1e-9)


def test_adjoint_gamma_symmetry():
    rng = np.random.default_rng(17)
    for _ in range(10):
        f = random_family(rng, multiband=True)
        a, b = hausdorff_mnc(f), hausdorff_mnc(f.adjoint())
        assert abs(a.mid - b.mid) <= a.width + b.width + 1e-12


def test_compact_perturbation_invariance():
    rng = np.random.default_rng(18)
    for _ in range(10):
        f = random_family(rng)
        g = f + finite_rank_family(rng.random((3, 3)))
        assert essential_spectral_radius(f).overlaps(
            essential_spectral_radius(g), slack=1e-9)


def test_diagonal_families_are_normal():
    rng = np.random.default_rng(19)
    for _ in range(10):
        w = RationalFormula([rng.random(), 0.5 + rng.random()], [0.0, 1.0])
        d = diagonal_family(w)
        assert essential_spectral_radius(d).overlaps(hausdorff_mnc(d), slack=1e-9)
