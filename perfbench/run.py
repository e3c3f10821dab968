"""specrad benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload finite_dense --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports specrad from ``src/`` there.
The process is single-threaded and pins BLAS to one thread.  With
``--trace 0`` it times calls into the public API from outside and prints
the end-to-end metrics; with ``--trace 1`` it installs the span tracer and
prints the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
0 when every correctness check passed, 1 when one failed and 2 when the
benchmark could not run at all.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracer import SEQ_VALUE, Tracer, profile_counts  # noqa: E402
from workloads import WORKLOADS, call, reference  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED = BENCH_DIR / "expected.json"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 5
SELF_TEST_OPS = 3
CALIBRATE_EVERY_S = 0.05
# The calibration kernel's time in the fast periods of the machine the
# benchmark was defined on (Intel Xeon, 2 vCPUs); times are reported at it.
CALIBRATION_REF_S = 1.4e-3
MODULES = ("chains", "ensembles", "errors", "families", "jsr", "matrices", "registry",
           "sequences", "serialize", "sets", "spectral")

END_TO_END = (("evals_per_s", "1/s"), ("eval_p50_ms", "ms"), ("eval_tail_ms", "ms"),
              ("ok_frac", "frac"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

CHAIN_IDS = tuple(f"F{k}" for k in range(1, 17)) + tuple(f"E{k}" for k in range(1, 22))
SPAN_LAYERS = (
    "spectral.spectral_radius", "spectral.operator_norm", "spectral.hausdorff_mnc",
    "spectral.essential_spectral_radius",
    "jsr.gripenberg_bracket", "jsr.gen_radius_lb", "jsr.joint_radius_ub",
    "jsr.norm_level_max", "jsr.gamma_level_max", "jsr.gamma_set_bracket",
    "jsr.norm_set_bracket",
    "families.hadamard", "families.hpow", "families.matmul", "families.add",
    "families.adjoint", "families.truncate", "families.tail_norm_bound",
    "sets.set_hadamard_mean", "sets.set_product", "sets.set_power", "sets.set_sum",
    "sets.symmetrization",
)
UNCONVERGED = ("spectral.spectral_radius", "spectral.hausdorff_mnc", "jsr.gripenberg_bracket")
PER_LAYER = (
    tuple(m for n in SPAN_LAYERS for m in ((f"{n}.calls", "calls/op"), (f"{n}.self_ms", "ms/op")))
    + tuple((f"{n}.unconverged", "count/op") for n in UNCONVERGED)
    + (("families.closure_overflow", "count/op"),
       ("sequences.value.calls", "calls/op"),
       ("registry.sample.self_ms", "ms/sample"),
       ("registry.build.self_ms", "ms/op"),
       ("chains.evaluate_chain.self_ms", "ms/op"),
       ("serialize.digest.calls", "calls/op"),
       ("serialize.digest.self_ms", "ms/op"),
       ("spectral.spectral_radius.incl_frac", "frac"),
       ("families.incl_frac", "frac"),
       ("trace.overhead_frac", "frac"))
    + tuple((f"registry.{cid}.ms_per_trial", "ms") for cid in CHAIN_IDS)
)

_CALIBRATION_MATRIX = np.random.default_rng(0).random((6, 6))


def calibration() -> float:
    """Seconds taken by a fixed kernel of small numpy and Python work.

    The kernel is the benchmark's own code, so no change to specrad moves
    it; only the speed the machine gives this process at that moment does.
    """
    start = time.perf_counter()
    for _ in range(16):
        b = _CALIBRATION_MATRIX / _CALIBRATION_MATRIX.max()
        for _ in range(12):
            b = b @ b
            b /= b.max()
            float(b.sum(axis=1).min())
        sum(i * i for i in range(600))
    return time.perf_counter() - start


def load_specrad() -> SimpleNamespace:
    """Import specrad afresh from the checkout, so set-up pays for the import."""
    for name in [n for n in sys.modules if n == "specrad" or n.startswith("specrad.")]:
        del sys.modules[name]
    pkg = importlib.import_module("specrad")
    if Path(pkg.__file__).resolve().parent != SRC / "specrad":
        raise ImportError(f"specrad was imported from {pkg.__file__}, not from {SRC}")
    api = SimpleNamespace(specrad=pkg)
    for mod in MODULES:
        setattr(api, mod, importlib.import_module(f"specrad.{mod}"))
    return api


def environment() -> dict:
    blas = "unknown"
    try:
        blas_info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"]}


def closed_loop(workload, api, pool, ctx, seconds: float, tracer=None, cals=None):
    """Run operations back to back until the deadline, ending on a whole round.

    With ``cals`` given, the calibration kernel runs before the first
    operation, between operations at least every CALIBRATE_EVERY_S and after
    the last; ``before[j]`` indexes the calibration taken just before
    operation j.
    """
    loop = SimpleNamespace(durations=[], labels=[], before=[], bad=0, errors=[])
    if cals is not None:
        cals.append(calibration())
    deadline = time.perf_counter() + seconds
    last_cal = time.perf_counter()
    i = 0
    while i % workload.round_size or time.perf_counter() < deadline:
        item = pool[i % len(pool)]
        if tracer is not None:
            tracer.op = i
        if cals is not None:
            loop.before.append(len(cals) - 1)
        elapsed, outcome = call(workload, api, item, ctx)
        loop.durations.append(elapsed)
        loop.labels.append(workload.label(item))
        loop.bad += not outcome.ok
        if outcome.error:
            loop.errors.append(outcome.error)
        if cals is not None and time.perf_counter() - last_cal >= CALIBRATE_EVERY_S:
            cals.append(calibration())
            last_cal = time.perf_counter()
        i += 1
    if cals is not None:
        cals.append(calibration())
    return loop


def at_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` scaled by the calibrations taken either side of it."""
    return seconds * CALIBRATION_REF_S / ((before + after) / 2)


def timed_slice(workload, api, items, ctx) -> float:
    """Seconds for ``items`` run back to back, at the reference speed."""
    total = 0.0
    before = calibration()
    for item in items:
        elapsed, _ = call(workload, api, item, ctx)
        after = calibration()
        total += at_reference(elapsed, before, after)
        before = after
    return total


def scaled_durations(loop, cals) -> list[float]:
    return [at_reference(d, cals[k], cals[k + 1]) for d, k in zip(loop.durations, loop.before)]


def tail(durations, pct: float):
    """The pct-th percentile by nearest rank: (value, samples beyond it)."""
    ordered = sorted(durations)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def reference_checks(workload, api, specs, ctx, expected, lines) -> list[str]:
    """Gate on the default and held-out seeds' reference slices."""
    errors = []
    for role in ("default_seed", "held_out_seed"):
        seed = expected[role]
        counts, digest, slice_errors = reference(workload, api, specs, seed, ctx)
        errors.extend(f"{role} {seed}: {e}" for e in slice_errors)
        want = expected["reference"][workload.name][str(seed)]
        if counts != want["counts"]:
            errors.append(f"{role} {seed}: outcome counts {counts} != recorded {want['counts']}")
        lines.append(f"reference {role}={seed}: counts {counts} "
                     f"report_digest_match={digest == want['digest']}")
    return errors


def summary(durations, bad, setup_s, tail_pct) -> dict:
    n = len(durations)
    return {
        "evals_per_s": n / sum(durations),
        "eval_p50_ms": statistics.median(durations) * 1e3,
        "eval_tail_ms": tail(durations, tail_pct)[0] * 1e3,
        "ok_frac": 1.0 - bad / n,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure(workload, api, pool, ctx, seconds, setups, cals, lines):
    """End-to-end metrics, with every time scaled to the reference speed.

    Each duration is multiplied by CALIBRATION_REF_S / local, where local is
    the mean of the calibrations taken just before and just after it.
    """
    loop = closed_loop(workload, api, pool, ctx, seconds, cals=cals)
    scaled = scaled_durations(loop, cals)
    setup_scaled = [at_reference(*setup) for setup in setups]
    metrics = summary(scaled, loop.bad, statistics.median(setup_scaled), workload.tail_pct)
    raw = summary(loop.durations, loop.bad, statistics.median(s for s, _, _ in setups),
                  workload.tail_pct)
    n = len(scaled)
    beyond = tail(scaled, workload.tail_pct)[1]
    lines.append(f"eval_tail_ms is p{workload.tail_pct:g} of {n} operations, {beyond} beyond it"
                 + ("" if beyond >= 10 else " (fewer than 10: the run is too short for it)"))
    lines.append(f"fail_frac {loop.bad / n:.6f} ({loop.bad} of {n}: fail or inconclusive "
                 f"verdicts, SpecradError, unconverged brackets)")
    lines.append(f"calibration: {len(cals)} runs, min {min(cals) * 1e3:.4f} ms, median "
                 f"{statistics.median(cals) * 1e3:.4f} ms, max {max(cals) * 1e3:.4f} ms, "
                 f"reference {CALIBRATION_REF_S * 1e3:g} ms")
    lines.append("unscaled: " + ", ".join(f"{k}={raw[k]:.6g}" for k, _ in END_TO_END))
    return n, loop.errors, {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}


def measure_traced(workload, api, specs, pool, seed, ctx, seconds, lines):
    errors = []
    overhead_items = pool[:workload.overhead_ops]
    untraced = [timed_slice(workload, api, overhead_items, ctx)]

    tracer = Tracer(api)
    tracer.install(specs)
    try:
        mismatches = profile_counts(tracer, lambda: [
            call(workload, api, item, ctx)
            for item in workload.make_pool(api, specs, seed, 1)[:SELF_TEST_OPS]])
        errors.extend(f"tracer self-test: {m}" for m in mismatches)
        lines.append(f"tracer self-test against cProfile: {mismatches or 'ok'}")

        tracer.reset()      # set up again under the tracer for registry.sample spans
        before = calibration()
        pool = workload.make_pool(api, specs, seed)
        samples = tracer.call_counts()["registry.sample"]
        sample_ms = at_reference(tracer.self_ms()["registry.sample"], before, calibration())
        traced = timed_slice(workload, api, overhead_items, ctx)

        tracer.reset()
        cals = []
        loop = closed_loop(workload, api, pool, ctx, seconds, tracer=tracer, cals=cals)
        errors.extend(loop.errors)
    finally:
        tracer.uninstall()
    problems = tracer.verify_restored(specs)
    errors.extend(f"tracer uninstall: {p}" for p in problems)
    lines.append(f"tracer uninstall: {problems or 'every original restored'}")
    untraced.append(timed_slice(workload, api, overhead_items, ctx))

    n = len(loop.durations)
    scaled = scaled_durations(loop, cals)
    scale = [at_reference(1.0, cals[k], cals[k + 1]) for k in loop.before]
    wall_ms = sum(scaled) * 1e3
    calls = tracer.call_counts()
    self_ms = tracer.self_ms(scale)
    metrics = {}
    for name in SPAN_LAYERS:
        metrics[f"{name}.calls"] = calls[name] / n
        metrics[f"{name}.self_ms"] = self_ms[name] / n
    for name in UNCONVERGED:
        metrics[f"{name}.unconverged"] = tracer.unconverged[name] / n
    metrics["families.closure_overflow"] = tracer.closure_overflow / n
    metrics["sequences.value.calls"] = calls[SEQ_VALUE] / n
    metrics["registry.sample.self_ms"] = sample_ms / samples if samples else 0.0
    metrics["registry.build.self_ms"] = self_ms["registry.build"] / n
    metrics["chains.evaluate_chain.self_ms"] = self_ms["chains.evaluate_chain"] / n
    metrics["serialize.digest.calls"] = calls["serialize.digest"] / n
    metrics["serialize.digest.self_ms"] = self_ms["serialize.digest"] / n
    metrics["spectral.spectral_radius.incl_frac"] = (
        tracer.outermost_ms(["spectral.spectral_radius"], scale) / wall_ms)
    metrics["families.incl_frac"] = (
        tracer.outermost_ms([m for m in tracer.names if m.startswith("families.")], scale)
        / wall_ms)
    metrics["trace.overhead_frac"] = traced / statistics.mean(untraced) - 1.0
    per_chain: dict[str, list[float]] = {}
    for label, d in zip(loop.labels, scaled):
        per_chain.setdefault(label, []).append(d)
    for cid in CHAIN_IDS:
        runs = per_chain.get(cid)
        metrics[f"registry.{cid}.ms_per_trial"] = statistics.mean(runs) * 1e3 if runs else 0.0

    path = OUT_DIR / f"spans-{workload.name}-seed{seed}.csv.gz"
    tracer.write(path)
    lines.append(f"traced {n} operations in {sum(loop.durations):.2f} s; "
                 f"{len(tracer)} spans written to {path.relative_to(ROOT)}")
    lines.append(f"overhead slice: untraced {[round(u, 4) for u in untraced]} s, "
                 f"traced {traced:.4f} s")
    return n, errors, {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed; defaults to the default seed in expected.json")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "specrad" / "__init__.py").is_file():
        print(f"error: no specrad sources under {SRC}", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    seed = expected["default_seed"] if args.seed is None else args.seed
    workload = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))

    cals = [calibration() for _ in range(20)]
    setups = []      # (seconds, calibration before, calibration after)
    api = specs = pool = None
    for _ in range(1 if args.trace else SETUP_REPEATS):
        del api, specs, pool
        gc.collect()    # drop the previous set-up's modules and pool before timing
        cals.append(calibration())
        start = time.perf_counter()
        api = load_specrad()
        specs = workload.specs(api)
        pool = workload.make_pool(api, specs, seed)
        elapsed = time.perf_counter() - start
        cals.append(calibration())
        setups.append((elapsed, cals[-2], cals[-1]))
    del cals[:20]    # the first runs warm the kernel up
    ctx = api.chains.EvalContext()

    lines = [f"env {json.dumps(environment(), sort_keys=True)}",
             f"workload {workload.name} seed {seed} seconds {args.seconds} trace {args.trace}"]
    errors = reference_checks(workload, api, specs, ctx, expected, lines)
    if args.trace:
        attempted, loop_errors, metrics = measure_traced(
            workload, api, specs, pool, seed, ctx, args.seconds, lines)
    else:
        attempted, loop_errors, metrics = measure(
            workload, api, pool, ctx, args.seconds, setups, cals, lines)
    errors.extend(loop_errors)

    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for e in errors[:20]:
        print(f"CHECK FAILED: {e}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": len(loop_errors), "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
