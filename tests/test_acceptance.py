"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is also part of the default pytest run.
"""

import json
import math
import time

import numpy as np
import pytest

from helpers import encloses_perron_root, gamma_via_star, word_radius_lb
from specrad import (
    EnsembleSpec,
    EvalContext,
    FiniteMatrix,
    OperatorSet,
    essential_spectral_radius,
    gen_radius_lb,
    gripenberg_bracket,
    hausdorff_mnc,
    run_ensemble,
    set_power,
    set_product,
    spectral_radius,
)
from specrad.cli import main
from specrad.ensembles import sample_family, sample_weight_seq
from specrad.families import diagonal_family, finite_rank_family, shift_family
from specrad.registry import registry

CTX = EvalContext()
PHI = (1 + math.sqrt(5)) / 2

FAMILY_KINDS = ("shift_family", "diagonal_family", "shift_plus_rank")


def _report(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


def _split_trials(total: int, parts: int):
    base = total // parts
    out = [base] * parts
    for i in range(total - base * parts):
        out[i] += 1
    return out


def test_criterion_1_finite_soundness_sweep():
    t0 = time.time()
    fails = 0
    trials_done = 0
    sizes = (4, 5, 6)
    for spec in registry():
        if spec.level != "finite":
            continue
        for size, trials in zip(sizes, _split_trials(200, len(sizes))):
            run = run_ensemble(spec, EnsembleSpec(kind="dense_uniform",
                                                  size=size, seed=42), trials, CTX)
            fails += run.summary["fail"]
            trials_done += trials
    elapsed = time.time() - t0
    _report(1, fails == 0 and elapsed <= 300.0,
            f"F1-F16 x 200 dense trials: {trials_done} evaluations, "
            f"{fails} failures, {elapsed:.1f}s")


def test_criterion_2_essential_soundness_sweep():
    t0 = time.time()
    fails = 0
    inconclusive = 0
    total = 0
    for spec in registry():
        if spec.level != "essential":
            continue
        for kind, trials in zip(FAMILY_KINDS, _split_trials(50, len(FAMILY_KINDS))):
            run = run_ensemble(spec, EnsembleSpec(kind=kind, size=4, seed=43),
                               trials, CTX)
            fails += run.summary["fail"]
            inconclusive += run.summary["inconclusive"]
            total += trials
    frac = inconclusive / total
    elapsed = time.time() - t0
    _report(2, fails == 0 and frac <= 0.10,
            f"E1-E21 x 50 family trials: {total} evaluations, {fails} failures, "
            f"{inconclusive} inconclusive ({100 * frac:.1f}%), {elapsed:.1f}s")


def test_criterion_3_jsr_golden_fixture():
    pair = OperatorSet([FiniteMatrix([[1, 1], [0, 1]]),
                        FiniteMatrix([[1, 0], [1, 1]])])
    t0 = time.time()
    b = gripenberg_bracket(pair, 1e-6)
    elapsed = time.time() - t0
    ok = b.contains(PHI) and b.width <= 1e-6 and elapsed <= 1.0
    _report(3, ok, f"golden pair bracket [{b.lo:.9f}, {b.hi:.9f}] "
                   f"width={b.width:.2e} in {elapsed * 1000:.1f}ms")


def test_criterion_4_gamma_and_ess_oracles():
    rng = np.random.default_rng(44)
    ens = EnsembleSpec(kind="diagonal_family", seed=44)
    worst_gamma = 0.0
    for _ in range(30):
        w = sample_weight_seq(rng, ens)
        d = diagonal_family(w)
        g = hausdorff_mnc(d)
        worst_gamma = max(worst_gamma, abs(g.lo - w.limit), abs(g.hi - w.limit))
    worst_ess = 0.0
    for _ in range(30):
        w = sample_weight_seq(rng, ens)
        f = shift_family(w, offset=int(rng.integers(1, 3)))
        b = essential_spectral_radius(f)
        worst_ess = max(worst_ess, abs(b.hi - w.limit), abs(b.lo - w.limit))
    _report(4, worst_gamma <= 1e-6 and worst_ess <= 1e-6,
            f"30 diagonal families |gamma - limit| <= {worst_gamma:.2e}; "
            f"30 single-band |ess - limit| <= {worst_ess:.2e}")


def test_criterion_5_star_identity_cross_check():
    rng = np.random.default_rng(45)
    ens = EnsembleSpec(kind="shift_family", seed=45)
    overlaps = 0
    for k in range(30):
        f = sample_family(rng, ens, kind=FAMILY_KINDS[k % 3],
                          offset=int(rng.integers(1, 3)))
        if k % 4 == 0:
            f = f + diagonal_family(sample_weight_seq(rng, ens))
        a = hausdorff_mnc(f)
        b = gamma_via_star(f)
        overlaps += a.overlaps(b, slack=1e-9)
    _report(5, overlaps == 30,
            f"hausdorff_mnc and gamma_via_star brackets overlap on {overlaps}/30 "
            "mixed families")


def test_criterion_6_compact_perturbation():
    rng = np.random.default_rng(46)
    ens = EnsembleSpec(kind="shift_family", seed=46)
    overlaps = 0
    for k in range(20):
        f = sample_family(rng, ens, kind=FAMILY_KINDS[k % 2],
                          offset=int(rng.integers(1, 3)))
        g = f + finite_rank_family(rng.random((3, 3)))
        a = essential_spectral_radius(f)
        b = essential_spectral_radius(g)
        overlaps += a.overlaps(b, slack=1e-9)
    _report(6, overlaps == 20,
            f"essential radius brackets overlap on {overlaps}/20 "
            "(family, family + finite rank) pairs")


def test_criterion_7_spectral_oracle_fixture():
    """Zero slack: each bracket must enclose the exact Perron root."""
    rng = np.random.default_rng(47)
    enclosed = 0
    for k in range(50):
        n = 2 if k % 2 == 0 else 3
        a = rng.random((n, n))
        if k % 5 == 0:
            a = a * (rng.random((n, n)) < 0.5)
        if k % 7 == 0:
            a = np.triu(a)
        b = spectral_radius(FiniteMatrix(a))
        enclosed += encloses_perron_root(a, b.lo, b.hi)
    _report(7, enclosed == 50, f"50-case 2x2/3x3 fixture: {enclosed}/50 brackets enclose "
                               "the exact Perron root")


def test_criterion_8_power_and_cyclic_identities():
    rng = np.random.default_rng(48)
    worst = 0.0
    for _ in range(20):
        s = OperatorSet([FiniteMatrix(rng.random((2, 2))) for _ in range(2)])
        for k in (2, 3):
            for m in (1, 2, 3, 4):
                left = gen_radius_lb(set_power(s, k), m)
                right = word_radius_lb(s, [k * j for j in range(1, m + 1)]) ** k
                worst = max(worst, abs(left - right) / max(1.0, right))
        p = OperatorSet([FiniteMatrix(rng.random((2, 2))) for _ in range(2)])
        for m in (1, 2, 3, 4):
            a = gen_radius_lb(set_product(s, p), m)
            b = gen_radius_lb(set_product(p, s), m)
            worst = max(worst, abs(a - b) / max(1.0, a))
    _report(8, worst <= 1e-9,
            f"power/cyclic identities on explored words: relative "
            f"discrepancy <= {worst:.2e} over 20 sets")


def test_criterion_9_byte_identical_reports(tmp_path):
    args = ["sweep", "--ids", "F2,F5,E2,E10", "--trials", "5", "--seed", "911",
            "--ensemble", "shift_plus_rank"]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = main(args + ["--out", str(out1)])
    code2 = main(args + ["--out", str(out2)])
    same = out1.read_bytes() == out2.read_bytes()
    csv1, csv2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    main(args + ["--out", str(csv1), "--format", "csv"])
    main(args + ["--out", str(csv2), "--format", "csv"])
    same_csv = csv1.read_bytes() == csv2.read_bytes()
    _report(9, code1 == code2 == 0 and same and same_csv,
            f"repeated sweeps byte-identical: json={same} csv={same_csv}")
