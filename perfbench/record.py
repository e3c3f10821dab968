"""Record the reference slices' verdict counts and report digests.

    python3 perfbench/record.py

Run from the root of a checkout.  Evaluates every workload's reference
slice on the default and the held-out seed and rewrites expected.json next
to this file.  Re-record only for a deliberate behaviour change.
"""

import json
import sys

from run import EXPECTED, SRC, load_specrad
from workloads import WORKLOADS, reference

DEFAULT_SEED = 1
HELD_OUT_SEED = 97


def main() -> int:
    sys.path.insert(0, str(SRC))
    api = load_specrad()
    ctx = api.chains.EvalContext()
    recorded = {}
    for name, workload in WORKLOADS.items():
        specs = workload.specs(api)
        recorded[name] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            counts, digest, errors = reference(workload, api, specs, seed, ctx)
            if errors:
                print(f"{name} seed {seed}: {errors}", file=sys.stderr)
                return 1
            recorded[name][str(seed)] = {"counts": counts, "digest": digest}
            print(name, seed, counts, digest)
    doc = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
           "reference": recorded}
    EXPECTED.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
