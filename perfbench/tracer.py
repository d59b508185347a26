"""Spans around the public functions of each boolnet layer, from outside it.

The tracer replaces each layer's entry point with a wrapper for the length of
a traced pass and puts the originals back afterwards; nothing inside
src/boolnet knows it is being traced.  A function is replaced under every
name that binds it in a loaded boolnet module (`from .regions import
decide_property` in modify, synthesis, cli, gadgets and the package itself),
so calls made through any of those names are seen.

Each call records a span (layer name, start, end, parent span, instance id)
in memory.  Spans are folded into per-layer totals when their instance ends,
so memory stays bounded by the largest single instance.  A layer's self time
is its span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

Span = namedtuple("Span", "name start end parent instance")


@dataclass(frozen=True)
class Layer:
    """One traced entry point.

    owner: dotted module path ("kernel" for the module boolnet.KERNEL
    names); cls: attribute holding the method's class, or None for a module
    function; moves: the end-to-end metric and workload the layer's numbers
    should move.
    """

    name: str
    owner: str
    cls: str | None
    attr: str
    moves: str
    observe: Callable | None = None


def _kernel_solve(tracer, result):
    tracer.counts["kernel.solve.nodes"] += result[3]
    tracer.counts["kernel.solve.found"] += result[0] == tracer.kernel.FOUND


def _decide_property(tracer, result):
    tracer.counts["regions.decide_property.yes"] += type(result).__name__ == "Witness"


def _fast_path(tracer, result):
    tracer.counts["modify.fast_path.decided"] += result.outcome != "fall-through"


def _reachability(tracer, result):
    tracer.counts["nets.reachability_graph.states"] += len(result.states)


# The gated end-to-end metric each layer should move, and on which workload.
# The kernel takes about 40% of traced time on split and 50% on removal.
_KERNEL = "throughput_per_kref and verdict_ref_p90 on split and removal"
_REGIONS = "verdict_ref_p50 on synth; per-call overhead on removal"
_MODIFY = "throughput_per_kref and verdict_ref_p90 on removal; nothing on synth"
_SYNTH = "throughput_per_kref and verdict_ref_p50 on synth only"
_FRONT = "verdict_ref_p50 on synth"

LAYERS = (
    Layer("kernel.prepare", "kernel", None, "prepare", _KERNEL),
    Layer("kernel.solve", "kernel", None, "solve", _KERNEL, _kernel_solve),
    Layer("regions.compile", "boolnet.regions", "CompiledProblem", "__init__", _REGIONS),
    Layer("regions.solve", "boolnet.regions", "CompiledProblem", "solve", _REGIONS),
    Layer("regions.decide_property", "boolnet.regions", None, "decide_property", _REGIONS,
          _decide_property),
    Layer("modify.decide", "boolnet.modify", None, "decide", _MODIFY),
    Layer("modify.fast_path", "boolnet.modify", None, "decide_fast_path", _MODIFY, _fast_path),
    Layer("modify.apply_plan", "boolnet.modify", None, "apply_plan", _MODIFY),
    Layer("ts.build", "boolnet.ts", "TransitionSystem", "build", _MODIFY),
    Layer("synthesis.synthesize", "boolnet.synthesis", None, "synthesize", _SYNTH),
    Layer("synthesis.net_from_witness", "boolnet.synthesis", None, "net_from_witness", _SYNTH),
    Layer("synthesis.verify", "boolnet.synthesis", None, "verify_implementation", _SYNTH),
    Layer("ts.check_relation", "boolnet.ts", None, "check_relation", _SYNTH),
    Layer("nets.reachability_graph", "boolnet.nets", None, "reachability_graph", _SYNTH,
          _reachability),
    Layer("ts.parse_ts", "boolnet.ts", None, "parse_ts", _FRONT),
    Layer("cli.run", "boolnet.cli", None, "run", _FRONT),
)

# counts kept besides calls, and the ratios derived from them
EXTRA_COUNTS = (
    "kernel.solve.nodes",
    "kernel.solve.found",
    "regions.decide_property.yes",
    "modify.fast_path.decided",
    "nets.reachability_graph.states",
)
RATIOS = (
    ("kernel.solve.found_ratio", "kernel.solve.found", "kernel.solve.calls"),
    ("regions.decide_property.yes_ratio", "regions.decide_property.yes",
     "regions.decide_property.calls"),
    ("modify.fast_path.decided_ratio", "modify.fast_path.decided", "modify.fast_path.calls"),
)


def unit(metric: str) -> str:
    if metric.endswith(".self_s"):
        return "s"
    if metric.endswith(("_ratio", "_frac")):
        return "frac"
    return "count"


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the union of its
    children's intervals clipped to it."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for c_lo, c_hi in sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children[i]
        ):
            if c_hi <= c_lo:
                continue
            if hi is None or c_lo > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_lo, c_hi
            else:
                hi = max(hi, c_hi)
        if hi is not None:
            covered += hi - lo
        out.append(s.end - s.start - covered)
    return out


def _boolnet_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "boolnet" or n.startswith("boolnet."))]


class Tracer:
    """Installs the layer wrappers, collects spans, and restores on exit.

    Use as a context manager around a traced pass; call begin(i) and end()
    around instance i.
    """

    def __init__(self, kernel_module):
        self.kernel = kernel_module
        self.spans: list = []
        self.stack: list[int] = []
        self.instance = -1
        self.self_s = {layer.name: 0.0 for layer in LAYERS}
        self.counts = {f"{layer.name}.calls": 0 for layer in LAYERS}
        self.counts.update({name: 0 for name in EXTRA_COUNTS})
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: list = []

    # -- patching ----------------------------------------------------------------

    def _owner(self, layer: Layer):
        if layer.owner == "kernel":
            return self.kernel
        return sys.modules[layer.owner]

    def __enter__(self):
        try:
            for layer in LAYERS:
                owner = self._owner(layer)
                if layer.cls is not None:
                    cls = getattr(owner, layer.cls)
                    raw = cls.__dict__[layer.attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(layer, raw.__func__))
                    else:
                        wrapped = self._wrap(layer, raw)
                    self._patch(cls, layer.attr, raw, wrapped)
                    continue
                fn = getattr(owner, layer.attr)
                wrapped = self._wrap(layer, fn)
                for mod in _boolnet_modules():
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, name, fn, wrapped)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _patch(self, target, name, original, wrapped):
        self._patched.append((target, name, original))
        self._wrappers.append(wrapped)
        setattr(target, name, wrapped)

    def restore(self):
        while self._patched:
            target, name, original = self._patched.pop()
            setattr(target, name, original)

    def leftovers(self) -> list[str]:
        """Names still bound to one of this tracer's wrappers."""
        wrappers = {id(w) for w in self._wrappers}
        owners = _boolnet_modules() + [
            getattr(self._owner(layer), layer.cls) for layer in LAYERS if layer.cls
        ]
        return sorted(
            f"{getattr(o, '__name__', o)}.{name}"
            for o in owners
            for name, value in list(vars(o).items())
            if id(value) in wrappers
        )

    def _wrap(self, layer: Layer, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        name, observe = layer.name, layer.observe

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.instance)
            if observe is not None:
                observe(self, result)
            return result

        return traced

    # -- instances ---------------------------------------------------------------

    def begin(self, instance: int) -> None:
        self.instance = instance

    def end(self) -> None:
        """Fold the finished instance's spans into the per-layer totals."""
        for span, own in zip(self.spans, self_times(self.spans)):
            self.self_s[span.name] += own
            self.counts[f"{span.name}.calls"] += 1
        self.spans.clear()
        self.instance = -1

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = dict(self.counts)
        for layer in LAYERS:
            out[f"{layer.name}.self_s"] = self.self_s[layer.name]
        for ratio, num, den in RATIOS:
            out[ratio] = self.counts[num] / self.counts[den] if self.counts[den] else 0.0
        return out
