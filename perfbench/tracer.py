"""Span tracer installed from outside the library.

The tracer wraps public functions at specrad's module boundaries and
records one span per call: name, start, end, parent span and operation id.
Spans stay in memory and are written when the run ends.  A wrapper is
installed in every specrad module namespace that bound the original
function (``jsr``, ``registry`` and the package itself import
``spectral_radius`` by name), on the ``OperatorFamily`` class for the
family algebra, on every ``WeightSeq`` subclass for the count-only
``sequences.value``, and on each registry ``ChainSpec`` for
``sample``/``build``.  ``uninstall`` puts every original object back and
``verify_restored`` proves it, so an untraced run measures unmodified code.
"""

from __future__ import annotations

import cProfile
import gzip
import pstats
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute, span name) for module-level functions.
FUNCTIONS = (
    ("spectral", "spectral_radius", "spectral.spectral_radius"),
    ("spectral", "operator_norm", "spectral.operator_norm"),
    ("spectral", "hausdorff_mnc", "spectral.hausdorff_mnc"),
    ("spectral", "essential_spectral_radius", "spectral.essential_spectral_radius"),
    ("jsr", "gripenberg_bracket", "jsr.gripenberg_bracket"),
    ("jsr", "gen_radius_lb", "jsr.gen_radius_lb"),
    ("jsr", "joint_radius_ub", "jsr.joint_radius_ub"),
    ("jsr", "norm_level_max", "jsr.norm_level_max"),
    ("jsr", "gamma_level_max", "jsr.gamma_level_max"),
    ("jsr", "gamma_set_bracket", "jsr.gamma_set_bracket"),
    ("jsr", "norm_set_bracket", "jsr.norm_set_bracket"),
    ("sets", "set_hadamard_mean", "sets.set_hadamard_mean"),
    ("sets", "set_product", "sets.set_product"),
    ("sets", "set_power", "sets.set_power"),
    ("sets", "set_sum", "sets.set_sum"),
    ("sets", "symmetrization", "sets.symmetrization"),
    ("chains", "evaluate_chain", "chains.evaluate_chain"),
    ("serialize", "digest", "serialize.digest"),
)

# OperatorFamily methods and their span names.
FAMILY_METHODS = (
    ("hadamard", "families.hadamard"),
    ("hpow", "families.hpow"),
    ("__matmul__", "families.matmul"),
    ("__add__", "families.add"),
    ("adjoint", "families.adjoint"),
    ("truncate", "families.truncate"),
    ("tail_norm_bound", "families.tail_norm_bound"),
)

# Spans whose Bracket result carries a converged flag worth counting.
UNCONVERGED = ("spectral.spectral_radius", "spectral.hausdorff_mnc",
               "jsr.gripenberg_bracket")

SEQ_VALUE = "sequences.value"
SPAN_NAMES = (tuple(n for _, _, n in FUNCTIONS) + tuple(n for _, n in FAMILY_METHODS)
              + ("registry.sample", "registry.build"))
FAMILY_NAMES = tuple(n for _, n in FAMILY_METHODS)


def specrad_modules():
    return [m for n, m in sorted(sys.modules.items())
            if n == "specrad" or n.startswith("specrad.")]


def _all_subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_all_subclasses(sub))
    return out


class Tracer:
    """In-memory span recorder; install, run, uninstall, then summarise."""

    def __init__(self, api):
        self.api = api
        self.names: list[str] = list(SPAN_NAMES)
        self._index = {n: i for i, n in enumerate(self.names)}
        # One entry per span in each column.  Arrays hold no Python objects,
        # so a long trace adds nothing for the garbage collector to scan.
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack: list[int] = []
        self.op = -1
        self.value_calls = [0]
        self.unconverged: dict[str, int] = defaultdict(int)
        self._overflow_seen: set[int] = set()
        self.closure_overflow = 0
        self._patches: list[tuple] = []   # (setter, owner, attribute, original)
        self.originals: dict[str, list] = defaultdict(list)  # span name -> originals

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        idx = self._index[name]
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops = self.span_parent, self.span_op
        stack, clock = self._stack, time.perf_counter
        tracer = self
        overflow = self.api.errors.ClosureOverflowError
        count_unconverged = name in UNCONVERGED
        is_family = name in FAMILY_NAMES

        def wrapper(*args, **kwargs):
            pos = len(names)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(pos)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except overflow as exc:
                if is_family and id(exc) not in tracer._overflow_seen:
                    tracer._overflow_seen.add(id(exc))
                    tracer.closure_overflow += 1
                raise
            finally:
                ends[pos] = clock()
                stack.pop()
            if count_unconverged and not result.converged:
                tracer.unconverged[name] += 1
            return result

        wrapper.perfbench_wrapper = True
        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn):
        counter = self.value_calls

        def value(self, i):
            counter[0] += 1
            return fn(self, i)

        value.perfbench_wrapper = True
        value.__wrapped__ = fn
        return value

    def _patch(self, setter, owner, attr, original, wrapper, name):
        setter(owner, attr, wrapper)
        self._patches.append((setter, owner, attr, original))
        if original not in self.originals[name]:
            self.originals[name].append(original)

    # -- install / uninstall ------------------------------------------------

    def install(self, specs) -> None:
        modules = specrad_modules()
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(getattr(self.api, mod_name), attr)
            wrapper = self._span(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(setattr, mod, key, original, wrapper, name)
        family = self.api.families.OperatorFamily
        for attr, name in FAMILY_METHODS:
            original = family.__dict__[attr]
            self._patch(setattr, family, attr, original, self._span(name, original), name)
        for cls in _all_subclasses(self.api.sequences.WeightSeq):
            if "value" in cls.__dict__:
                original = cls.__dict__["value"]
                self._patch(setattr, cls, "value", original, self._counter(original),
                            SEQ_VALUE)
        for spec in specs:
            for attr in ("sample", "build"):
                original = getattr(spec, attr)
                name = f"registry.{attr}"
                self._patch(object.__setattr__, spec, attr, original,
                            self._span(name, original), name)

    def uninstall(self) -> None:
        for setter, owner, attr, original in reversed(self._patches):
            setter(owner, attr, original)

    def verify_restored(self, specs) -> list[str]:
        """Problems found after uninstall; empty when every original is back."""
        problems = []
        for _, owner, attr, original in self._patches:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if current is not original:
                problems.append(f"{getattr(owner, '__name__', owner)!s:.40}.{attr} not restored")
        holders = specrad_modules() + [self.api.families.OperatorFamily]
        holders += _all_subclasses(self.api.sequences.WeightSeq)
        for holder in holders:
            for key, value in vars(holder).items():
                if getattr(value, "perfbench_wrapper", False):
                    problems.append(f"{holder.__name__}.{key} still wrapped")
        for spec in specs:
            for attr in ("sample", "build"):
                if getattr(getattr(spec, attr), "perfbench_wrapper", False):
                    problems.append(f"{spec.id}.{attr} still wrapped")
        return problems

    # -- summaries ----------------------------------------------------------

    def _columns(self):
        return (self.span_name, self.span_start, self.span_end, self.span_parent,
                self.span_op)

    def __len__(self) -> int:
        return len(self.span_name)

    def reset(self) -> None:
        for column in self._columns():
            del column[:]
        self.value_calls[0] = 0
        self.unconverged.clear()
        self.closure_overflow = 0

    def call_counts(self) -> dict[str, int]:
        counts = dict.fromkeys(self.names, 0)
        for idx in self.span_name:
            counts[self.names[idx]] += 1
        counts[SEQ_VALUE] = self.value_calls[0]
        return counts

    def self_ms(self, scale=None) -> dict[str, float]:
        """Per-name self time: span duration minus the time its children cover.

        ``scale[op]``, when given, multiplies the times of operation op.
        """
        covered = [0.0] * len(self)
        for start, end, parent in zip(self.span_start, self.span_end, self.span_parent):
            if parent >= 0:
                covered[parent] += end - start
        out = dict.fromkeys(self.names, 0.0)
        for idx, start, end, op, child in zip(self.span_name, self.span_start,
                                              self.span_end, self.span_op, covered):
            factor = 1.0 if scale is None else scale[op]
            out[self.names[idx]] += (end - start - child) * factor * 1e3
        return out

    def outermost_ms(self, names, scale=None) -> float:
        """Time inside spans of ``names``, counting nested ones once."""
        wanted = {self._index[n] for n in names}
        total = 0.0
        for idx, start, end, parent, op in zip(*self._columns()):
            if idx not in wanted:
                continue
            while parent >= 0 and self.span_name[parent] not in wanted:
                parent = self.span_parent[parent]
            if parent < 0:
                total += (end - start) * (1.0 if scale is None else scale[op])
        return total * 1e3

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("# name,start_s,end_s,parent,op; names: " + " ".join(self.names) + "\n")
            fh.writelines(f"{i},{s:.9f},{e:.9f},{p},{o}\n"
                          for i, s, e, p, o in zip(*self._columns()))


def profile_counts(tracer: Tracer, run) -> list[str]:
    """Run ``run`` under both the tracer and cProfile; list count mismatches.

    cProfile counts calls per code object, so every wrapped original must
    have been called exactly as often as its wrapper recorded; a call that
    bypassed the wrapper (a name bound somewhere the tracer missed) shows
    up as a larger cProfile count.
    """
    tracer.reset()
    prof = cProfile.Profile()
    prof.enable()
    try:
        run()
    finally:
        prof.disable()
    # pstats keys are (filename, first line, name); values start (primitive, total calls)
    ncalls = {key: value[1] for key, value in pstats.Stats(prof).stats.items()}
    traced = tracer.call_counts()
    problems = []
    for name, originals in tracer.originals.items():
        codes = {fn.__code__ for fn in originals}
        profiled = sum(ncalls.get((c.co_filename, c.co_firstlineno, c.co_name), 0)
                       for c in codes)
        if profiled != traced[name]:
            problems.append(f"{name}: tracer {traced[name]} calls, cProfile {profiled}")
    return problems
