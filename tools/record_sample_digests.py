#!/usr/bin/env python3
"""Record the input and skeleton digests of every chain's sampled trials.

    PYTHONPATH=src python3 tools/record_sample_digests.py tests/fixtures/sample_digests.json

For each chain in the registry and each ensemble kind of its level
(matrix kinds for finite chains, family kinds for essential ones), draws
the inputs of trials 0 to 4 at seed 42 with the chain's own sampler and
records, per trial, the pair of their ``input_digest``, the digest that
every report carries, and the digest of the report's skeleton.  The
skeleton is what a report says besides its numbers: each part's name and
kind, each term's label and method tag, and each part's note.  It holds
no float, so it does not depend on the platform's rounding.
``tests/test_registry.py`` draws and evaluates the same trials and
asserts the same digests, so a change that must keep the samplers and
the report structure byte-identical is checked against the checkout that
recorded the file.  Record with the code before the change; re-record
only for a declared behaviour change.
"""

from __future__ import annotations

import json
import sys

from specrad.chains import EvalContext, evaluate_chain
from specrad.ensembles import FAMILY_KINDS, MATRIX_KINDS, EnsembleSpec, rng_for
from specrad.registry import registry
from specrad.serialize import digest

SEED = 42
TRIALS = 5


def skeleton(report) -> list:
    """A report's parts without their numbers: [name, kind, [[label,
    method], ...], note] per part."""
    return [[p.name, p.kind, [[r.label, r.method] for r in p.rows], p.note]
            for p in report.parts]


def digests() -> dict:
    """chain id -> ensemble kind -> [input digest, skeleton digest] of
    trials 0..TRIALS-1."""
    out = {}
    ctx = EvalContext()
    for spec in registry():
        kinds = MATRIX_KINDS if spec.level == "finite" else FAMILY_KINDS
        out[spec.id] = {}
        for kind in kinds:
            ens = EnsembleSpec(kind=kind, seed=SEED)
            out[spec.id][kind] = []
            for trial in range(TRIALS):
                report = evaluate_chain(spec, spec.sample(rng_for(ens, trial, spec.id), ens),
                                        ctx, trial)
                out[spec.id][kind].append([report.input_digest, digest(skeleton(report))])
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump(digests(), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
