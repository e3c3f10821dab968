#!/usr/bin/env python3
"""Build specrad's nine fixed reports in a checkout and print their sha256.

    python3 tools/fixed_reports.py CHECKOUT [BASE_CHECKOUT]

The fixed reports are the ones that must stay byte-identical across
refactors: ``catalog``, the fixed-seed sweep over all chains, the three
essential sweeps, a finite sweep on sparse matrices (whose blocks take
the power steps of a failed check at eig's vector), a finite sweep on
sparser, larger ones with many singleton and small components per matrix
(the component split; one of its blocks reaches the squaring squeeze),
the sweep with ``--dump-inputs`` and ``estimate jsr``
on the golden pair (the only one that reaches ``gripenberg_bracket``).
Each runs in the checkout's root with its ``src`` on ``PYTHONPATH`` and with
``--out``, and one line per report gives the sha256 of its stdout and of
its ``--out`` file.  With a base checkout the reports are built there too,
and the stdout and ``--out`` of each one are printed as ``identical`` or
``DIFFERS``.  Each sweep's per-chain pass/fail/inconclusive counts, read
from its ``--out`` report, are then printed beside the base's, with
``same verdicts`` or ``VERDICTS DIFFER``: a declared behaviour change
shows there that it kept its verdicts where its digests differ.  The jsr
estimate reads the golden-pair fixture of this tool's own checkout in
every checkout, so its report names the same input path.

The exit status is 1 when a report command exits with a nonzero status in
either checkout, and 0 otherwise: a difference is printed, not judged.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

GOLDEN_PAIR = Path(__file__).resolve().parents[1] / "tests" / "fixtures" / "golden_pair.json"
REPORTS = {
    "catalog": ["catalog"],
    "sweep_all": ["sweep", "--registry", "all", "--trials", "4", "--seed", "42"],
    **{f"sweep_essential_{e}": ["sweep", "--registry", "essential", "--ensemble", e,
                                "--trials", "20", "--seed", "11"]
       for e in ("shift_family", "diagonal_family", "shift_plus_rank")},
    "sweep_sparse": ["sweep", "--registry", "finite", "--ensemble", "sparse_bernoulli",
                     "--size", "12", "--density", "0.15", "--trials", "4", "--seed", "42"],
    "sweep_sparse_reducible": ["sweep", "--registry", "finite", "--ensemble", "sparse_bernoulli",
                               "--size", "18", "--density", "0.08", "--trials", "4",
                               "--seed", "7"],
    "sweep_dump": ["sweep", "--registry", "all", "--trials", "2", "--seed", "5",
                   "--dump-inputs"],
    "estimate_jsr": ["estimate", "jsr", "--input", str(GOLDEN_PAIR), "--delta", "1e-6"],
}
DIGESTS = ("stdout_sha256", "out_sha256")


def run_in(root: Path, args: list[str], command: list[str] | None = None):
    """Run ``command + args`` in root with its ``src`` on the path; the
    command defaults to this interpreter."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run([*(command or [sys.executable]), *args], cwd=root, env=env,
                          capture_output=True, text=True)


def reports(root: Path) -> dict:
    """Per fixed report: wall time, exit status, the sha256 of stdout and
    ``--out``, and for a sweep its ``verdicts``."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in REPORTS.items():
            path = Path(tmp) / f"{name}.json"
            start = time.perf_counter()
            proc = run_in(root, ["-m", "specrad.cli", *args, "--out", str(path)])
            wall = time.perf_counter() - start
            body = path.read_bytes() if path.exists() else None
            out[name] = {
                "wall_s": round(wall, 3), "exit_code": proc.returncode,
                "stdout_sha256": hashlib.sha256(proc.stdout.encode()).hexdigest(),
                "out_sha256": None if body is None else hashlib.sha256(body).hexdigest()}
            if args[0] == "sweep":
                out[name]["verdicts"] = None if body is None else verdicts(json.loads(body))
    return out


def verdicts(report: dict) -> dict:
    """A sweep report's per-chain counts, chain id -> "pass/fail/inconclusive"."""
    return {run["chain_id"]: "{pass}/{fail}/{inconclusive}".format(**run["summary"])
            for run in report["runs"]}


def verdict_line(name: str, head: dict | None, base: dict | None) -> str:
    """``same verdicts`` or ``VERDICTS DIFFER``, the sweep's name and each
    chain's counts in the checkout, followed by the base's in parentheses
    where they differ ("-" for a chain or report that one side lacks)."""
    head, base = head or {}, base or {}
    same = bool(head) and head == base
    cells = [f"{c}={head.get(c, '-')}"
             + ("" if head.get(c) == base.get(c) else f"(base {base.get(c, '-')})")
             for c in [*head, *(c for c in base if c not in head)]]
    return " ".join(["same verdicts" if same else "VERDICTS DIFFER", name, *cells])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("base", type=Path, nargs="?")
    args = parser.parse_args(argv)
    docs = [reports(args.checkout.resolve())]
    for name, doc in docs[0].items():
        print(f"{name} exit={doc['exit_code']} "
              + " ".join(f"{key}={doc[key]}" for key in DIGESTS))
    if args.base is not None:
        docs.append(reports(args.base.resolve()))
        for name, doc in docs[0].items():
            for key in DIGESTS:
                same = doc[key] == docs[1][name][key]
                print(f"{'identical' if same else 'DIFFERS'} {name} {key}")
        for name, doc in docs[0].items():
            if "verdicts" in doc:
                print(verdict_line(name, doc["verdicts"], docs[1][name].get("verdicts")))
    return 1 if any(d["exit_code"] for doc in docs for d in doc.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
