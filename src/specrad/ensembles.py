"""Seeded, reproducible input ensembles for the inequality registry.

Identical specs yield identical samples: every trial derives its own RNG
stream from (seed, trial index, consumer label), so trials are independent
and order-insensitive.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _integer, _is_number
from .families import OperatorFamily, diagonal_family, shift_family
from .matrices import FiniteMatrix
from .sequences import EventuallyConstant, PrefixWithLimit, RationalFormula, WeightSeq

DENSE_UNIFORM = "dense_uniform"
SPARSE_BERNOULLI = "sparse_bernoulli"
SHIFT_FAMILY = "shift_family"
DIAGONAL_FAMILY = "diagonal_family"
SHIFT_PLUS_RANK = "shift_plus_rank"

MATRIX_KINDS = (DENSE_UNIFORM, SPARSE_BERNOULLI)
FAMILY_KINDS = (SHIFT_FAMILY, DIAGONAL_FAMILY, SHIFT_PLUS_RANK)
KINDS = MATRIX_KINDS + FAMILY_KINDS

# Weight laws w(i) = c + a/i draw c and a uniformly from these ranges.
C_RANGE = (0.5, 2.0)
A_RANGE = (-0.4, 1.0)


@dataclass(frozen=True)
class EnsembleSpec:
    """Description of a random input population; identical spec, identical draws.

    ``size`` is the matrix side, ``density`` the nonzero probability of
    ``sparse_bernoulli`` entries and ``seed`` an integer >= 0.  The weight-law
    ranges are the module constants ``C_RANGE`` and ``A_RANGE``; ``to_json``
    records them too.
    """

    kind: str = DENSE_UNIFORM
    size: int = 4
    density: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown ensemble kind {self.kind!r}; expected one of {KINDS}")
        object.__setattr__(self, "size", _integer(self.size, 1, "ensemble size"))
        if not (_is_number(self.density) and 0.0 <= self.density <= 1.0):
            raise DomainError(f"density must be a real in [0, 1], got {self.density!r}")
        object.__setattr__(self, "density", float(self.density))
        object.__setattr__(self, "seed", _integer(self.seed, 0, "ensemble seed"))

    def to_json(self) -> dict:
        return {"kind": self.kind, "size": self.size, "density": self.density,
                "seed": self.seed, "c_range": list(C_RANGE),
                "a_range": list(A_RANGE)}


def rng_for(ens: EnsembleSpec, trial: int, label: str) -> np.random.Generator:
    """Deterministic per-(seed, trial, label) random stream."""
    return np.random.default_rng([ens.seed, trial, zlib.crc32(label.encode("utf-8"))])


def sample_matrix(rng: np.random.Generator, ens: EnsembleSpec) -> FiniteMatrix:
    n = ens.size
    a = rng.random((n, n))
    if ens.kind == SPARSE_BERNOULLI:
        a = a * (rng.random((n, n)) < ens.density)
    return FiniteMatrix(a)


def _uniform(rng, lo: float, hi: float) -> float:
    return float(lo + (hi - lo) * rng.random())


def sample_weight_seq(rng: np.random.Generator, ens: EnsembleSpec) -> WeightSeq:
    """Weight law w(i) = c + a/i by default, other leaf kinds mixed in."""
    c = _uniform(rng, *C_RANGE)
    a = _uniform(rng, *A_RANGE)
    pick = rng.random()
    if pick < 0.7:
        return RationalFormula([a, c], [0.0, 1.0])  # (c i + a)/i = c + a/i
    if pick < 0.85:
        prefix = [max(0.0, c + a / i) for i in range(1, int(rng.integers(1, 4)) + 1)]
        return EventuallyConstant(prefix, c)
    prefix = [max(0.0, c + a / i) for i in range(1, int(rng.integers(1, 4)) + 1)]
    return PrefixWithLimit(prefix, c)


def sample_family(rng: np.random.Generator, ens: EnsembleSpec,
                  offset: int | None = None, kind: str | None = None) -> OperatorFamily:
    kind = kind if kind is not None else (
        ens.kind if ens.kind in FAMILY_KINDS else
        FAMILY_KINDS[int(rng.integers(0, len(FAMILY_KINDS)))])
    w = sample_weight_seq(rng, ens)
    rank = rng.random((3, 3)) if kind == SHIFT_PLUS_RANK else None
    d = offset if offset is not None else (0 if kind == DIAGONAL_FAMILY else 1)
    if d == 0:
        return diagonal_family(w, finite_rank=rank)
    return shift_family(w, offset=d, finite_rank=rank)


def sample_simplex(rng: np.random.Generator, m: int) -> tuple[float, ...]:
    """Positive weights summing to one."""
    draws = rng.dirichlet(np.ones(m))
    draws = np.maximum(draws, 1e-3)
    draws /= draws.sum()
    return tuple(float(x) for x in draws)


def sample_weights_ge_one(rng: np.random.Generator, m: int) -> tuple[float, ...]:
    """Positive weights with sum in [1, 2]."""
    s = 1.0 + rng.random()
    return tuple(s * x for x in sample_simplex(rng, m))


BETA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def sample_beta(rng: np.random.Generator, open_interval: bool = False) -> float:
    grid = BETA_GRID[1:-1] if open_interval else BETA_GRID
    return float(grid[int(rng.integers(0, len(grid)))])


def sample_alpha_at_least(rng: np.random.Generator, bound: float) -> float:
    return float(bound * (1.0 + rng.random()))
