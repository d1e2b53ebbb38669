"""Spans around calls into tffcomb's public functions, recorded from outside.

``Tracer.install`` replaces each traced function in every tffcomb namespace
its callers look it up in (``tffcore.find_config``, ``realize.decide``,
``dualities.validate_config``, ``tffcore.partitions_of``, the package
itself, ...) with a wrapper that records a span: name, start, end, parent
span and an outcome tag.  Generators are wrapped so that each ``next()`` is
one span.  ``Tracer.remove`` puts the original functions back.  Spans stay in
memory until ``write`` saves them; ``layer_metrics`` turns them into the
per-layer figures.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def _found(out):
    return "found" if out is not None else "none"


def _tight(out):
    tight = out[0] if isinstance(out, tuple) else out
    return "tight" if tight else "not_tight"


def _passes(out):
    return "pass" if out else "reject"


def _untagged(out):
    return None


# (module, function, outcome tag of a call, or None for a generator)
TRACED = [
    ("partitions", "partitions_of", None),
    ("partitions", "dominance_leq", _untagged),
    ("configmat", "find_config", _found),
    ("configmat", "count_configs", _untagged),
    ("configmat", "iter_configs", None),
    ("configmat", "validate_config", _untagged),
    ("tffcore", "decide", _tight),
    ("tffcore", "maximal_elements", _untagged),
    ("tffcore", "first3_check", _passes),
    ("tffcore", "k_block_bound", _passes),
    ("dualities", "config_spatial_dual", _untagged),
    ("dualities", "config_naimark_dual", _untagged),
    ("realize", "realize_tff", _untagged),
    ("realize", "verify_tff", _untagged),
]

# realize_tff's tightness precheck: the decide it looks up in its own module
PRECHECK = "realize.decide_precheck"

# (metric, unit, better); every figure is per round of the workload
PER_LAYER = [
    ("configmat.find_config.calls", "count", "lower"),
    ("configmat.find_config.found", "count", "lower"),
    ("configmat.find_config.found_s", "s", "lower"),
    ("configmat.find_config.none_s", "s", "lower"),
    ("tffcore.decide.calls", "count", "lower"),
    ("tffcore.decide.tight", "count", "lower"),
    ("tffcore.decide.s", "s", "lower"),
    ("tffcore.decide.self_s", "s", "lower"),
    ("tffcore.maximal_elements.calls", "count", "lower"),
    ("tffcore.maximal_elements.self_s", "s", "lower"),
    ("tffcore.first3_check.rejects", "count", "higher"),
    ("tffcore.k_block_bound.rejects", "count", "higher"),
    ("partitions.partitions_of.yielded", "count", "lower"),
    ("partitions.partitions_of.s", "s", "lower"),
    ("partitions.dominance_leq.calls", "count", "lower"),
    ("partitions.dominance_leq.s", "s", "lower"),
    ("configmat.iter_configs.yielded", "count", "lower"),
    ("configmat.iter_configs.s", "s", "lower"),
    ("configmat.count_configs.calls", "count", "lower"),
    ("configmat.count_configs.s", "s", "lower"),
    ("configmat.validate_config.calls", "count", "lower"),
    ("configmat.validate_config.s", "s", "lower"),
    ("dualities.config_spatial_dual.calls", "count", "lower"),
    ("dualities.config_spatial_dual.s", "s", "lower"),
    ("dualities.config_spatial_dual.self_s", "s", "lower"),
    ("dualities.config_naimark_dual.calls", "count", "lower"),
    ("dualities.config_naimark_dual.s", "s", "lower"),
    ("dualities.config_naimark_dual.self_s", "s", "lower"),
    ("realize.realize_tff.calls", "count", "lower"),
    ("realize.realize_tff.s", "s", "lower"),
    ("realize.realize_tff.self_s", "s", "lower"),
    ("realize.decide_precheck.s", "s", "lower"),
    ("realize.verify_tff.calls", "count", "lower"),
    ("realize.verify_tff.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """In-memory span recorder for one process.

    A span is ``[name, start, end, parent, tag]``; ``parent`` is the index of
    the span that was open when this one started, or -1.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _start(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent, None])
        self._open.append(idx)
        return idx

    def _end(self, idx: int, tag) -> None:
        self.spans[idx][2] = perf_counter()
        self.spans[idx][4] = tag
        self._open.pop()

    def _wrap_call(self, name: str, fn, tag_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._start(name)
            tag = "raised"
            try:
                out = fn(*args, **kwargs)
                tag = tag_of(out)
                return out
            finally:
                self._end(idx, tag)

        return traced

    def _wrap_generator(self, name: str, fn):
        tracer = self

        class TracedIterator:
            def __init__(self, inner):
                self._inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                idx = tracer._start(name)
                tag = "raised"
                try:
                    item = next(self._inner)
                    tag = "yield"
                    return item
                except StopIteration:
                    tag = "stop"
                    raise
                finally:
                    tracer._end(idx, tag)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return TracedIterator(fn(*args, **kwargs))

        return traced

    def _patch(self, module, attr: str, value) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        """Wrap every TRACED function wherever tffcomb has bound it."""
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "tffcomb" or key.startswith("tffcomb."))
        ]
        for mod_name, fn_name, tag_of in TRACED:
            original = getattr(sys.modules[f"tffcomb.{mod_name}"], fn_name)
            name = f"{mod_name}.{fn_name}"
            if tag_of is None:
                wrapper = self._wrap_generator(name, original)
            else:
                wrapper = self._wrap_call(name, original, tag_of)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        realize = sys.modules["tffcomb.realize"]
        self._patch(realize, "decide", self._wrap_call(PRECHECK, realize.decide, _untagged))

    def remove(self) -> None:
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)

    def write(self, path: Path) -> None:
        """Save the spans as tab-separated lines, times in seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\ttag\n")
            for idx, (name, start, end, parent, tag) in enumerate(self.spans):
                fh.write(f"{idx}\t{parent}\t{name}\t{start!r}\t{end!r}\t{tag}\n")

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer figures of the recorded spans, divided by ``rounds``.

        ``.calls``/``.yielded`` count spans, ``.s`` sums the durations of the
        spans not nested in a span of the same name, and ``.self_s`` sums
        each span's duration minus the durations of its direct children.
        """
        calls = defaultdict(int)
        tags = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        by_tag = defaultdict(float)
        for name, start, end, parent, tag in self.spans:
            dur = end - start
            calls[name] += 1
            tags[name, tag] += 1
            by_tag[name, tag] += dur
            own[name] += dur
            if parent >= 0:
                own[self.spans[parent][0]] -= dur
            if not self._nested_in_same(parent, name):
                total[name] += dur
        figures = {}
        for metric, _, _ in PER_LAYER:
            layer, _, stat = metric.rpartition(".")
            if stat == "calls":
                value = calls[layer]
            elif stat == "s":
                value = total[layer]
            elif stat == "self_s":
                value = own[layer]
            elif stat == "yielded":
                value = tags[layer, "yield"]
            elif stat == "found":
                value = tags[layer, "found"]
            elif stat == "found_s":
                value = by_tag[layer, "found"]
            elif stat == "none_s":
                value = by_tag[layer, "none"]
            elif stat == "tight":
                value = tags[layer, "tight"]
            elif stat == "rejects":
                value = tags[layer, "reject"]
            else:
                continue
            figures[metric] = value / rounds
        return figures

    def _nested_in_same(self, parent: int, name: str) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
