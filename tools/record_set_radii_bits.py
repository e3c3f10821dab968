#!/usr/bin/env python3
"""Record the exact outputs of specrad's finite set-radius estimators.

    PYTHONPATH=src python3 tools/record_set_radii_bits.py tests/fixtures/set_radii_bits.json

Builds about forty seeded matrix sets and writes, for each, its matrices
and the ``float.hex`` of ``gen_radius_lb``, ``norm_level_max`` and
``gripenberg_bracket`` at a few depths and settings.  A refusal is recorded
as its exception class.  ``tests/test_jsr.py`` recomputes every value from
the stored matrices and asserts the same bits, so a change that must keep
the set radii byte-identical is checked against the checkout that recorded
the file.  Record with the code before the change; re-record only for a
declared behaviour change.

The sets mix sizes 1 to 18, one to three letters, dense, sparse,
triangular and cyclic patterns, zero letters and scales from 2^-300 to
2^300.  Three sets of three random 4 x 4 letters (rng seeds 5, 7 and 9)
end the list: at delta = 1e-4 and the default budget their branch and
bound stops at the frontier cap (``jsr._MAX_LEVEL``), which no other set
reaches.  Sets marked ``adjoint`` use the transposes of their stored
matrices, which numpy keeps in Fortran order.  With OpenBLAS 0.3.31 a
product of a Fortran-ordered 18 x 18 matrix rounds differently from its
C-ordered twin's, so the recorded bits of those sets also pin each
operand's memory layout.  A Gram matrix ``a.T @ a`` rounds the same in
either layout there (every n in 1-64 was scanned), so the 12 x 12
adjoint sets pin no layout.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from specrad import FiniteMatrix, OperatorSet
from specrad.errors import SpecradError
from specrad.jsr import gen_radius_lb, gripenberg_bracket, norm_level_max

GOLDEN_PAIR = [[[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]]]


def _matrix(rng, n: int, kind: str) -> np.ndarray:
    a = rng.random((n, n))
    if kind == "sparse":
        a *= rng.random((n, n)) < 0.3
    elif kind == "triangular":
        a = np.triu(a)
    elif kind == "cycle":
        a = np.roll(np.diag(rng.random(n) + 0.1), 1, axis=1)
    elif kind == "zero":
        a[:] = 0.0
    return a


def cases() -> list[dict]:
    """The seeded sets: their matrices and the calls made on them."""
    rng = np.random.default_rng(20240207)
    out = [{"mats": GOLDEN_PAIR, "adjoint": False, "lb": [1, 4, 8], "norm": [1, 4],
            "grip": [[1e-2, 1000, "l2"], [1e-6, 200_000, "l2"], [1e-2, 1000, "l1"]]}]
    kinds = ("dense", "sparse", "triangular", "cycle")
    for c in range(40):
        n = (1, 2, 3, 5, 12, 18)[c % 6]
        k = 1 + c % 3
        mats = [_matrix(rng, n, kinds[(c + j) % 4]) for j in range(k)]
        if c % 13 == 5:
            mats[-1] = _matrix(rng, n, "zero")
        scale = 2.0 ** int(rng.integers(-300, 301)) if c % 4 == 3 else 1.0
        deep = n <= 5
        out.append({
            "mats": [(m * scale).tolist() for m in mats],
            "adjoint": n >= 12 and c % 2 == 1,
            "lb": [1, 3, 6] if deep else [1, 3],
            "norm": [1, 2, 4] if deep else [1, 2],
            "grip": [[1e-2, 300, "l2"], [1e-3, 300, "linf" if c % 2 else "l2"]],
        })
    for c, seed in enumerate((5, 7, 9)):
        rng = np.random.default_rng(seed)
        out.append({
            "mats": [rng.random((4, 4)).tolist() for _ in range(3)],
            "adjoint": c == 1,
            "lb": [1, 3],
            "norm": [1, 2],
            "grip": [[1e-4, 50_000, "l2"], [1e-4, 50_000, "linf" if c % 2 else "l1"]],
        })
    return out


def operator_set(case: dict) -> OperatorSet:
    mats = [FiniteMatrix([[float.fromhex(x) if isinstance(x, str) else x for x in row]
                          for row in m]) for m in case["mats"]]
    return OperatorSet([m.adjoint() for m in mats] if case["adjoint"] else mats)


def _hex(fn):
    try:
        value = fn()
    except SpecradError as exc:
        return type(exc).__name__
    if isinstance(value, float):
        return value.hex()
    return [value.lo.hex(), value.hi.hex(), value.converged]


def outputs(case: dict) -> dict:
    """Every recorded call on the case's set, as float.hex or an error name."""
    s = operator_set(case)
    return {
        "gen_radius_lb": [_hex(lambda: gen_radius_lb(s, m)) for m in case["lb"]],
        "norm_level_max": [_hex(lambda: norm_level_max(s, d)) for d in case["norm"]],
        "gripenberg_bracket": [_hex(lambda: gripenberg_bracket(s, delta, budget=budget,
                                                               space=space))
                               for delta, budget, space in case["grip"]],
    }


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    doc = []
    for case in cases():
        case["mats"] = [[[float(x).hex() for x in row] for row in m] for m in case["mats"]]
        doc.append({**case, "expected": outputs(case)})
    with open(argv[1], "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(case) for case in doc) + "\n]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
