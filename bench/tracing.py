"""Spans around traceinv's public functions, recorded from outside the package.

A traced pass swaps each function listed in ``TRACED`` for a wrapper in every
``traceinv`` module namespace that holds it, so calls made through
``from .x import f`` bindings and through module globals are both caught
(``enumerate_monomials`` looks up ``girth_of`` and ``is_connected`` as globals
of ``perms``).  ``numpy.einsum`` is swapped too: its wrapper runs
``einsum_path`` and the contraction as two child spans, so planning and
execution are timed apart while the contraction order stays the one the
program chose.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import os
import statistics
import sys
from dataclasses import dataclass
from math import prod
from time import perf_counter_ns

import numpy as np

#: (module, function) pairs wrapped in a traced pass; span name is "module.function".
TRACED = (
    ("cli", "main"),
    ("statefile", "load_state"),
    ("perms", "enumerate_monomials"),
    ("perms", "girth_of"),
    ("perms", "is_connected"),
    ("equivalence", "decide_lu_equiv"),
    ("evaluate", "eval_contract"),
    ("evaluate", "eval_reference"),
    ("slocc", "embed_state"),
    ("slocc", "eval_slocc"),
)

MODULES = ("cli", "statefile", "perms", "equivalence", "evaluate", "slocc")


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into the span list, -1 for a job's root span
    job: str
    info: object = None

    @property
    def dur_ns(self):
        return self.end_ns - self.start_ns


def einsum_path_cost(subscripts, shapes, output, path):
    """FLOP count and largest intermediate of a contraction path, exactly as
    ``numpy.einsum_path`` defines them for its printed report (which rounds
    both to four digits)."""
    size = {}
    for subs, shape in zip(subscripts, shapes):
        size.update(zip(subs, shape))
    sets = [set(s) for s in subscripts]
    out = set(output)
    flops, largest = 0, 0
    for step in path[1:]:
        chosen = set().union(*(sets[i] for i in step))
        rest = [s for i, s in enumerate(sets) if i not in step]
        kept = out.union(*rest) & chosen
        factor = max(1, len(step) - 1) + (1 if chosen - kept else 0)
        flops += prod(size[i] for i in chosen) * factor
        largest = max(largest, prod(size[i] for i in kept))
        sets = rest + [kept]
    return flops + 1, largest


class Tracer:
    """Records spans while installed; ``job`` tags each span with the job id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = None
        self._stack = [-1]

    def _span(self, name, fn, annotate=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = Span(name, start, perf_counter_ns(), parent, self.job)
                stack.pop()
            if annotate is not None:
                spans[idx].info = annotate(args, kwargs, result)
            return result

        return wrapper

    def _einsum(self, einsum, einsum_path):
        plan = self._span("evaluate.einsum.plan", einsum_path, _plan_info)
        execute = self._span("evaluate.einsum.exec", einsum)

        def traced_einsum(*operands, optimize=False, **kwargs):
            path, _ = plan(*operands, optimize=optimize)
            return execute(*operands, optimize=path, **kwargs)

        return traced_einsum

    @contextlib.contextmanager
    def installed(self):
        """Swap in the wrappers for the duration of the block."""
        modules = [
            mod for name, mod in list(sys.modules.items())
            if name == "traceinv" or name.startswith("traceinv.")
        ]
        wrappers = {}
        for mod_name, fn_name in TRACED:
            fn = getattr(sys.modules[f"traceinv.{mod_name}"], fn_name)
            name = f"{mod_name}.{fn_name}"
            annotate = None
            if name == "perms.enumerate_monomials":
                annotate = _enumerate_info(inspect.signature(fn))
            elif name == "statefile.load_state":
                annotate = _load_info
            wrappers[id(fn)] = self._span(name, fn, annotate)
        swapped = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])
                    swapped.append((mod, attr, value))
        einsum = np.einsum
        np.einsum = self._einsum(einsum, np.einsum_path)
        try:
            yield self
        finally:
            np.einsum = einsum
            for mod, attr, value in swapped:
                setattr(mod, attr, value)

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(
                    {"name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
                     "parent": s.parent, "job": s.job}
                ) + "\n")


def _enumerate_info(signature):
    def annotate(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        return {
            "canonical": bool(a["canonical"]),
            "capped": a["girth_cap"] is not None,
            "filtered": a["girth_cap"] is not None or bool(a["connected_only"]),
            "classes_out": len(result),
        }

    return annotate


def _plan_info(operands, kwargs, result):
    # interleaved form: array, subscripts, ..., output subscripts
    return (
        [list(s) for s in operands[1:-1:2]],
        [a.shape for a in operands[0:-1:2]],
        list(operands[-1]),
        result[0],
    )


def _load_info(args, kwargs, result):
    return os.path.getsize(args[0])


#: Per-layer metrics of a traced run, in output order, with their units.
LAYER_METRICS = {
    "perms.enumerate_monomials.ms": "ms",
    "perms.enumerate_monomials.calls": "count",
    "perms.enumerate_monomials.classes_out": "count",
    "perms.enumerate_monomials.canonical_ms": "ms",
    "perms.enumerate_monomials.raw_ms": "ms",
    "perms.girth_of.ms": "ms",
    "perms.girth_of.calls": "count",
    "perms.is_connected.ms": "ms",
    "perms.is_connected.calls": "count",
    "perms.filter.keep_ratio": "ratio",
    "equivalence.decide_lu_equiv.ms": "ms",
    "equivalence.decide_lu_equiv.self_ms": "ms",
    "equivalence.decide_lu_equiv.evals": "count",
    "equivalence.decide_lu_equiv.mons_used_ratio": "ratio",
    "evaluate.eval_contract.ms": "ms",
    "evaluate.eval_contract.calls": "count",
    "evaluate.eval_contract.us_per_call": "us",
    "evaluate.einsum.plan_ms": "ms",
    "evaluate.einsum.exec_ms": "ms",
    "evaluate.einsum.flops": "flop",
    "evaluate.einsum.max_intermediate": "elements",
    "evaluate.eval_reference.us_per_call": "us",
    "evaluate.eval_contract.probe_us_per_call": "us",
    "slocc.embed_state.ms": "ms",
    "slocc.embed_state.calls": "count",
    "slocc.eval_slocc.self_ms": "ms",
    "statefile.load_state.ms": "ms",
    "statefile.load_state.calls": "count",
    "statefile.load_state.bytes": "bytes",
    "cli.main.self_ms": "ms",
    **{f"{m}.share": "ratio" for m in MODULES},
    "trace.overhead_frac": "ratio",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, n_passes, untraced_walls, traced_walls, probe=None):
    """Per-pass layer figures from the spans of ``n_passes`` traced passes.

    Self time is a span's duration minus its direct children's durations.
    Each module's share is its spans' self time over the time of the
    ``cli.main`` root spans.  Ratios with nothing to divide by read 0.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    self_ns = [s.dur_ns - sum(spans[c].dur_ns for c in children[i]) for i, s in enumerate(spans)]

    total = {}
    own = {}
    calls = {}
    for i, s in enumerate(spans):
        total[s.name] = total.get(s.name, 0) + s.dur_ns
        own[s.name] = own.get(s.name, 0) + self_ns[i]
        calls[s.name] = calls.get(s.name, 0) + 1

    def ms(ns):
        return ns / 1e6 / n_passes

    def per_pass(count):
        return count / n_passes

    # spans of calls that raised carry no info
    enum = [i for i, s in enumerate(spans) if s.name == "perms.enumerate_monomials" and s.info]
    canonical_ns = sum(spans[i].dur_ns for i in enum if spans[i].info["canonical"])
    tested = kept = 0
    for i in enum:
        info = spans[i].info
        if info["filtered"]:
            first = "perms.girth_of" if info["capped"] else "perms.is_connected"
            tested += sum(1 for c in children[i] if spans[c].name == first)
            kept += info["classes_out"]

    evals = enumerated = 0
    for i, s in enumerate(spans):
        if s.name == "equivalence.decide_lu_equiv":
            evals += sum(1 for c in children[i] if spans[c].name == "evaluate.eval_contract")
            enumerated += sum(spans[c].info["classes_out"] for c in children[i] if c in enum)

    flops, largest = 0, 0
    for s in spans:
        if s.name == "evaluate.einsum.plan" and s.info:
            f, big = einsum_path_cost(*s.info)
            flops += f
            largest = max(largest, big)

    load_bytes = sum(s.info or 0 for s in spans if s.name == "statefile.load_state")
    root_ns = total.get("cli.main", 0)
    module_self = dict.fromkeys(MODULES, 0)
    for name, ns in own.items():
        module_self[name.split(".")[0]] += ns

    probe = probe or {}
    out = {
        "perms.enumerate_monomials.ms": ms(total.get("perms.enumerate_monomials", 0)),
        "perms.enumerate_monomials.calls": per_pass(calls.get("perms.enumerate_monomials", 0)),
        "perms.enumerate_monomials.classes_out": per_pass(sum(spans[i].info["classes_out"] for i in enum)),
        "perms.enumerate_monomials.canonical_ms": ms(canonical_ns),
        "perms.enumerate_monomials.raw_ms": ms(total.get("perms.enumerate_monomials", 0) - canonical_ns),
        "perms.girth_of.ms": ms(total.get("perms.girth_of", 0)),
        "perms.girth_of.calls": per_pass(calls.get("perms.girth_of", 0)),
        "perms.is_connected.ms": ms(total.get("perms.is_connected", 0)),
        "perms.is_connected.calls": per_pass(calls.get("perms.is_connected", 0)),
        "perms.filter.keep_ratio": _ratio(kept, tested),
        "equivalence.decide_lu_equiv.ms": ms(total.get("equivalence.decide_lu_equiv", 0)),
        "equivalence.decide_lu_equiv.self_ms": ms(own.get("equivalence.decide_lu_equiv", 0)),
        "equivalence.decide_lu_equiv.evals": per_pass(evals),
        "equivalence.decide_lu_equiv.mons_used_ratio": _ratio(evals / 2, enumerated),
        "evaluate.eval_contract.ms": ms(total.get("evaluate.eval_contract", 0)),
        "evaluate.eval_contract.calls": per_pass(calls.get("evaluate.eval_contract", 0)),
        "evaluate.eval_contract.us_per_call": _ratio(
            total.get("evaluate.eval_contract", 0) / 1e3, calls.get("evaluate.eval_contract", 0)
        ),
        "evaluate.einsum.plan_ms": ms(total.get("evaluate.einsum.plan", 0)),
        "evaluate.einsum.exec_ms": ms(total.get("evaluate.einsum.exec", 0)),
        "evaluate.einsum.flops": per_pass(flops),
        "evaluate.einsum.max_intermediate": largest,
        "evaluate.eval_reference.us_per_call": probe.get("reference_us", 0.0),
        "evaluate.eval_contract.probe_us_per_call": probe.get("contract_us", 0.0),
        "slocc.embed_state.ms": ms(total.get("slocc.embed_state", 0)),
        "slocc.embed_state.calls": per_pass(calls.get("slocc.embed_state", 0)),
        "slocc.eval_slocc.self_ms": ms(own.get("slocc.eval_slocc", 0)),
        "statefile.load_state.ms": ms(total.get("statefile.load_state", 0)),
        "statefile.load_state.calls": per_pass(calls.get("statefile.load_state", 0)),
        "statefile.load_state.bytes": per_pass(load_bytes),
        "cli.main.self_ms": ms(own.get("cli.main", 0)),
        **{f"{m}.share": _ratio(module_self[m], root_ns) for m in MODULES},
        "trace.overhead_frac": statistics.median(traced_walls) / statistics.median(untraced_walls) - 1,
    }
    return out
