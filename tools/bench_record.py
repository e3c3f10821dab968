#!/usr/bin/env python3
"""Record specrad's benchmark figures for one or more checkouts as BENCH_<n>.json.

    python3 tools/bench_record.py PARENT=BENCH_8_parent.json CHANGE=BENCH_8.json \\
        --seeds 1141-1150

Each ``CHECKOUT=FILE`` names the root of a checkout and the JSON file to
write for it.  The command, the run length, the workloads and the
end-to-end metrics with their directions are read from the checkouts'
``BENCHMARK.json``, which must be the same in all of them.  ``--seeds`` is
required, and a seed that the ``seeds`` of a ``BENCH_*.json`` in the last
checkout's root already lists is refused, with that file named: a spent
seed has been seen by the change it measured.  Each checkout must
have git metadata (a clone, or ``git worktree add --detach DIR COMMIT``),
so that its file names the commit it measured; a checkout without it is
refused before any benchmark runs.  The
benchmark's runs alternate between the checkouts seed by
seed, first one first on even seeds and last one first on odd seeds, so a
slow spell of a shared machine falls on both sides.  Each file holds, for
its checkout:

- ``host``: the ``env`` record the benchmark prints (Python, numpy, scipy
  and BLAS versions, CPU model, thread variables);
- ``workloads``: per workload, every ``--trace 0`` run of the benchmark over
  the seeds, and the median and quartiles (``statistics.quantiles``, n=4)
  of each end-to-end metric; plus ``trace1_seed1``, the final JSON line of
  one ``--trace 1`` run on seed 1;
- ``tier1``: the wall time of the tier-1 suite, its summary line and the
  durations of acceptance criteria 1, 2 and 8 from ``pytest --durations=0``;
- ``reference``: the verdict counts and report digests of perfbench's
  reference slices on its default and held-out seeds;
- ``reports``: wall time, exit status and sha256 of stdout and ``--out`` of
  the nine fixed reports that ``tools/fixed_reports.py`` builds.

With two or more checkouts it prints, per workload and metric, how many
seed pairs the last checkout won against the first, both medians and
their ratio, and the first checkout's quartile spread (IQR).  Each such
line ends ``gain shown`` when the last checkout won at least nine tenths
of the pairs and its median beat the first's by more than that IQR, and
``not shown`` otherwise; ``WORSE`` is added when its median is worse than
the first's by more than the metric's ``BENCHMARK.json`` bound, taken as
a fraction of the first's median.  It also prints ``identical`` or ``DIFFERS`` for the stdout and
``--out`` sha256 of each fixed report and for the counts and digest of
each reference slice, the last checkout against the first.  The benchmark
files under ``perfbench/`` are used as they are.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from fixed_reports import reports, run_in

CRITERIA = {"criterion_1": "test_criterion_1_", "criterion_2": "test_criterion_2_",
            "criterion_8": "test_criterion_8_"}
# Runs in a checkout's root; prints {workload: {seed: {counts, digest}}}.
REFERENCE = """
import json, sys
sys.path.insert(0, "perfbench")
from run import EXPECTED, SRC, load_specrad
from workloads import WORKLOADS, reference
sys.path.insert(0, str(SRC))
api = load_specrad()
ctx = api.chains.EvalContext()
seeds = json.loads(EXPECTED.read_text(encoding="utf-8"))
out = {}
for name, workload in WORKLOADS.items():
    specs = workload.specs(api)
    out[name] = {}
    for seed in (seeds["default_seed"], seeds["held_out_seed"]):
        counts, digest, errors = reference(workload, api, specs, seed, ctx)
        out[name][str(seed)] = {"counts": counts, "digest": digest, "errors": errors}
print(json.dumps(out))
"""


def _last_json(proc: subprocess.CompletedProcess, what: str) -> dict:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or not lines:
        raise SystemExit(f"{what} did not run:\n{proc.stderr}")
    return json.loads(lines[-1])


def load_benchmark(roots: list[Path]) -> dict:
    """The BENCHMARK.json all checkouts declare; they must agree."""
    docs = [json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8")) for root in roots]
    if any(doc != docs[0] for doc in docs):
        raise SystemExit("the checkouts declare different BENCHMARK.json files")
    return docs[0]


def perfbench(bench: dict, root: Path, workload: str, seed: int,
              trace: int) -> tuple[dict, dict | None]:
    """The final JSON line of one benchmark run, and the run's ``env`` record."""
    proc = run_in(root, ["--workload", workload, "--seed", str(seed),
                       "--seconds", str(bench["run_seconds"]), "--trace", str(trace)],
                bench["command"])
    result = _last_json(proc, f"{root}: {workload} seed {seed}")
    env = next((line[len("env "):] for line in proc.stdout.splitlines()
                if line.startswith("env ")), None)
    return result, json.loads(env) if env else None


def end_to_end(bench: dict) -> dict[str, str]:
    """Each end-to-end metric's name and its better direction."""
    return {m["name"]: m["better"] for m in bench["end_to_end"]}


def summarize(bench: dict, runs: list[dict]) -> dict:
    out: dict = {"runs": runs}
    for key in ("q1", "median", "q3"):
        out[key] = {}
    for name in end_to_end(bench):
        values = [r["metrics"][name] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out["q1"][name], out["median"][name], out["q3"][name] = q1, med, q3
    return out


def tier1(root: Path) -> dict:
    start = time.perf_counter()
    proc = run_in(root, ["-m", "pytest", "-q", "--continue-on-collection-errors",
                       "--durations=0", "-p", "no:cacheprovider"])
    wall = time.perf_counter() - start
    durations = re.findall(r"^([\d.]+)s call\s+\S+::(\S+)$", proc.stdout, re.M)
    criteria = {key: next((float(s) for s, test in durations if test.startswith(prefix)), None)
                for key, prefix in CRITERIA.items()}
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"wall_s": round(wall, 2), "summary": summary.strip("= "), "criteria_s": criteria,
            "exit_code": proc.returncode}


def commit_of(root: Path) -> str:
    """The commit checked out at ``root``; a checkout without git metadata
    is refused, since its record could name no commit."""
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root} has no git metadata, so its record would name no commit; "
                         "check the commit out with `git worktree add --detach DIR COMMIT`")
    return proc.stdout.strip()


def compare(bench: dict, first: dict, last: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload, doc in last["workloads"].items():
        base = first["workloads"][workload]
        for name, better in end_to_end(bench).items():
            pairs = list(zip((r["metrics"][name] for r in base["runs"]),
                             (r["metrics"][name] for r in doc["runs"])))
            wins = sum((b > a) if better == "higher" else (b < a) for a, b in pairs)
            print(f"{workload} {name}: " + judge(
                wins, len(pairs), base["median"][name], doc["median"][name],
                base["q3"][name] - base["q1"][name], better, bounds[name]))
    for name, doc in last["reports"].items():
        for key in ("stdout_sha256", "out_sha256"):
            print(f"report {name} {key}: {_same(doc[key], first['reports'][name][key])}")
    for workload, seeds in last["reference"].items():
        for seed, doc in seeds.items():
            for key in ("counts", "digest"):
                base = first["reference"][workload][seed][key]
                print(f"reference {workload} seed {seed} {key}: {_same(doc[key], base)}")


def judge(wins: int, pairs: int, base: float, change: float, iqr: float, better: str,
          bound: float) -> str:
    """One metric's comparison line after its name.

    ``gain shown`` when the change won at least nine tenths of the pairs
    (ties count for neither side) and its median beat the parent's by more
    than the parent's quartile spread; ``WORSE`` when its median is worse
    than the parent's by more than ``bound``, a fraction of the parent's
    median, as ``BENCHMARK.json`` fixes it.
    """
    gap = change - base if better == "higher" else base - change
    ratio = f"{change / base:.3f}" if base else "n/a"
    shown = wins >= 0.9 * pairs and gap > iqr
    text = (f"wins {wins}/{pairs} median {base:.6g} -> {change:.6g} (ratio {ratio}) "
            f"parent IQR {iqr:.3g}: {'gain shown' if shown else 'not shown'}")
    if gap < -bound * abs(base):
        text += f", WORSE (bound {bound:g})"
    return text


def _same(a, b) -> str:
    return "identical" if a == b else "DIFFERS"


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spent(seeds: list[int], root: Path) -> str | None:
    """Why ``seeds`` may not be used in ``root``: the first seed that the
    ``seeds`` of a ``BENCH_*.json`` there lists, and that file; None when
    no seed is spent."""
    for path in sorted(root.glob("BENCH_*.json")):
        used = set(json.loads(path.read_text(encoding="utf-8")).get("seeds", ()))
        for seed in seeds:
            if seed in used:
                return f"seed {seed} is spent: {path.name} lists it"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("targets", nargs="+", metavar="CHECKOUT=FILE")
    parser.add_argument("--seeds", type=_seeds, required=True,
                        help="seed range of the --trace 0 pairs, e.g. 1141-1150; "
                             "seeds a BENCH_*.json of the last checkout lists are refused")
    args = parser.parse_args(argv)
    targets = []
    for spec in args.targets:
        root, sep, out = spec.partition("=")
        if not sep or not (Path(root) / "BENCHMARK.json").is_file():
            parser.error(f"{spec!r} is not CHECKOUT=FILE with BENCHMARK.json in CHECKOUT")
        targets.append((Path(root).resolve(), Path(out)))
    refusal = spent(args.seeds, targets[-1][0])
    if refusal:
        parser.error(refusal)
    bench = load_benchmark([root for root, _ in targets])
    workloads = [w["name"] for w in bench["workloads"]]

    docs = [{"commit": commit_of(root), "seconds": bench["run_seconds"], "seeds": args.seeds,
             "workloads": {}} for root, _ in targets]
    for workload in workloads:
        runs: list[list[dict]] = [[] for _ in targets]
        for k, seed in enumerate(args.seeds):
            order = range(len(targets)) if k % 2 == 0 else reversed(range(len(targets)))
            for i in order:
                result, _ = perfbench(bench, targets[i][0], workload, seed, 0)
                runs[i].append({"seed": seed, "correct": result["correct"],
                                "metrics": {n: result["metrics"][n]["value"]
                                            for n in end_to_end(bench)}})
                print(f"{targets[i][1]} {workload} seed {seed}: {runs[i][-1]['metrics']}",
                      flush=True)
        for doc, r in zip(docs, runs):
            doc["workloads"][workload] = summarize(bench, r)
    for (root, out), doc in zip(targets, docs):
        for workload in workloads:
            doc["workloads"][workload]["trace1_seed1"], doc["host"] = perfbench(
                bench, root, workload, 1, 1)
        doc["reference"] = json.loads(run_in(root, ["-c", REFERENCE]).stdout)
        doc["reports"] = reports(root)
        doc["tier1"] = tier1(root)
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {out}", flush=True)
    if len(docs) > 1:
        compare(bench, docs[0], docs[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
