#!/usr/bin/env python3
"""Record the input digest of every chain's sampled inputs.

    PYTHONPATH=src python3 tools/record_sample_digests.py tests/fixtures/sample_digests.json

For each chain in the registry and each ensemble kind of its level
(matrix kinds for finite chains, family kinds for essential ones), draws
the inputs of trials 0 to 4 at seed 42 with the chain's own sampler and
records their ``input_digest``, the digest that every report carries.
``tests/test_registry.py`` draws the same inputs and asserts the same
digests, so a change that must keep the samplers byte-identical is
checked against the checkout that recorded the file.  Record with the
code before the change; re-record only for a declared behaviour change.
"""

from __future__ import annotations

import json
import sys

from specrad.ensembles import FAMILY_KINDS, MATRIX_KINDS, EnsembleSpec, rng_for
from specrad.registry import registry
from specrad.serialize import digest

SEED = 42
TRIALS = 5


def digests() -> dict:
    """chain id -> ensemble kind -> the input digests of trials 0..TRIALS-1."""
    out = {}
    for spec in registry():
        kinds = MATRIX_KINDS if spec.level == "finite" else FAMILY_KINDS
        out[spec.id] = {}
        for kind in kinds:
            ens = EnsembleSpec(kind=kind, seed=SEED)
            out[spec.id][kind] = [
                digest(spec.sample(rng_for(ens, trial, spec.id), ens).to_json())
                for trial in range(TRIALS)]
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
