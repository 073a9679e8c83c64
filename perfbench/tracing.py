"""Spans around the package's layer entry points, recorded from outside.

`install()` replaces each traced entry point with a wrapper that records one
span per call: (id, parent id, name, start, end, attrs).  Spans stay in
memory and are written out once, when the traced command ends.  The
package's own code is untouched; the CLI runs exactly as it does untraced.
An entry point the package no longer has is listed as missing, not wrapped.

Span ids carry the process id, so spans from the search's worker processes
(which the CLI forks) merge with the parent's.  Workers ship their spans back
with each chunk of records.
"""
from __future__ import annotations

import functools
import json
import os
import time
import weakref
from collections import defaultdict

_ACTIVE: "Tracer | None" = None
_OWNER_PID = os.getpid()  # the traced CLI process; search workers differ
_DONE = object()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self._count = 0
        self.last_dual = None  # dual returned by the latest extract_dual call
        self.missing: list[str] = []

    def new_id(self) -> int:
        self._count += 1
        return os.getpid() * 1_000_000_000 + self._count

    def parent(self) -> int | None:
        return self.stack[-1] if self.stack else None

    def call(self, name: str, fn, args, kwargs, attrs_fn=None):
        sid, parent = self.new_id(), self.parent()
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
        attrs = attrs_fn(args, result) if attrs_fn else None
        self.spans.append((sid, parent, name, start, end, attrs))
        return result

    def span(self, name: str, fn, *args):
        return self.call(name, fn, args, {})

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"missing": self.missing, "spans": self.spans}, fh)


class _FirstSeen:
    """True the first time an object is passed in, by identity."""

    def __init__(self) -> None:
        self._refs: dict[int, weakref.ref] = {}

    def __call__(self, obj) -> bool:
        key = id(obj)
        if key in self._refs:
            return False
        self._refs[key] = weakref.ref(obj, lambda _, key=key: self._refs.pop(key, None))
        return True


class _TracedChunk(list):
    """A worker's records; pickling carries the worker's spans along."""

    def __reduce__(self):
        return (_rebuild_chunk, (list(self), self.spans))


def _rebuild_chunk(records, spans):
    _ACTIVE.spans.extend(tuple(s) for s in spans)
    return records


def _transform_attrs(args, result):
    dom = args[0].domain
    return {"p": dom.p, "n": dom.n_total}


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the already-imported package."""
    global _ACTIVE
    _ACTIVE = tracer
    import numpy as np

    import pbent.bent as bent
    import pbent.cli as cli
    import pbent.constructions as constructions
    import pbent.pfunc as pfunc
    import pbent.walsh as walsh

    first_perm = _FirstSeen()

    def perm_attrs(args, result):
        if not first_perm(args[0]):
            return None
        return {"identity": bool(np.array_equal(result, np.arange(result.size)))}

    def wrap(owner, attr: str, name: str, attrs_fn=None, name_fn=None) -> None:
        orig = getattr(owner, attr, None)
        if orig is None:
            tracer.missing.append(f"{owner.__name__}.{attr}")
            return

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            label = name_fn(args) if name_fn else name
            return tracer.call(label, orig, args, kwargs, attrs_fn)

        setattr(owner, attr, wrapper)

    def transform_name(args):
        return "bent.dual_transform" if args and args[0] is tracer.last_dual else "walsh.transform"

    def dual_attrs(args, result):
        tracer.last_dual = result[0]
        return None

    wrap(pfunc.Domain, "walsh_perm", "pfunc.walsh_perm", perm_attrs)
    wrap(walsh.WalshSpectrum, "abs_sq_rows", "walsh.abs_sq")
    wrap(walsh.WalshSpectrum, "histogram", "walsh.histogram")
    for mod in (bent, constructions, cli):
        wrap(mod, "walsh_fast", "walsh.transform", _transform_attrs, transform_name)
    for mod in (bent, constructions):
        wrap(mod, "is_bent", "bent.is_bent")
    wrap(bent, "extract_dual", "bent.extract_dual", dual_attrs)
    for mod in (cli, constructions):
        wrap(mod, "classify", "bent.classify")
    wrap(bent.ClassReport, "to_json", "bent.to_json")
    wrap(cli, "make_field", "field.make_field")
    wrap(cli, "_worker_field", "field.worker_field")
    wrap(cli, "load_tt", "pfunc.load_tt")
    wrap(cli, "from_expr", "pfunc.from_expr")
    wrap(cli, "dump_tt", "pfunc.dump_tt")
    wrap(cli, "_json_text", "cli.json_text")
    wrap(cli, "_emit", "cli.emit")
    wrap(cli, "evaluate_pair", "constructions.evaluate_pair")
    wrap(constructions, "ndcor_condition_sum", "constructions.condition_sum")
    wrap(constructions, "ndcor_function", "constructions.ndcor_function")
    _wrap_pairs(tracer, cli)
    _wrap_chunks(tracer, cli)


def _wrap_pairs(tracer: Tracer, cli) -> None:
    """The pair enumeration is a generator: one span from its first item to
    its last, which `search` consumes in a single pass."""
    orig = getattr(cli, "independent_pairs", None)
    if orig is None:
        tracer.missing.append("cli.independent_pairs")
        return

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        span = [tracer.new_id(), tracer.parent(), "constructions.independent_pairs",
                time.perf_counter(), None, None]
        tracer.spans.append(span)
        it = orig(*args, **kwargs)
        while True:
            item = next(it, _DONE)
            span[4] = time.perf_counter()
            if item is _DONE:
                return
            yield item

    cli.independent_pairs = wrapper


def _wrap_chunks(tracer: Tracer, cli) -> None:
    orig = getattr(cli, "_search_chunk", None)
    if orig is None:
        tracer.missing.append("cli._search_chunk")
        return

    @functools.wraps(orig)
    def wrapper(task):
        mark = len(tracer.spans)
        records = tracer.call("cli.search_chunk", orig, (task,), {})
        if os.getpid() == _OWNER_PID:
            return records
        out = _TracedChunk(records)
        out.spans = [tuple(s) for s in tracer.spans[mark:]]
        del tracer.spans[mark:]
        return out

    cli._search_chunk = wrapper


# ---- reading a trace back -------------------------------------------------------


def self_times(spans) -> tuple[dict[str, float], dict[int, float]]:
    """Self time summed per span name, and the covered time per span id.

    A span's self time is its duration minus the part of its interval that
    its children cover; children running in parallel (search workers) are
    merged as a union of intervals, never counted twice.
    """
    children = defaultdict(list)
    for sid, parent, _name, start, end, _attrs in spans:
        if parent is not None:
            children[parent].append((start, end))
    by_name: dict[str, float] = defaultdict(float)
    covered: dict[int, float] = {}
    for sid, _parent, name, start, end, _attrs in spans:
        cov, cur_s, cur_e = 0.0, None, None
        for cs, ce in sorted(children.get(sid, ())):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    cov += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            cov += cur_e - cur_s
        covered[sid] = cov
        by_name[name] += (end - start) - cov
    return dict(by_name), covered


def stage_work(p: int, n: int) -> tuple[int, int]:
    """Computed, not measured: element additions and bytes moved by the
    radix-p stages of one transform on p^n points.

    Each of the n stages adds p^2 blocks of N = p^n int64 entries (read
    two, write one), and rolls the (p-1)^2 blocks whose shift is nonzero
    (read one, write one).
    """
    N = p**n
    adds = n * p * p * N
    moved = n * (p * p * 3 + (p - 1) ** 2 * 2) * N * 8
    return adds, moved


def summarize(spans) -> dict:
    """Per-layer numbers for one op's spans."""
    self_s, covered = self_times(spans)
    transforms = [s for s in spans if s[2] in ("walsh.transform", "bent.dual_transform")]
    work = [stage_work(s[5]["p"], s[5]["n"]) for s in transforms]
    return {
        "self_s": self_s,
        "walsh_perm_identity": sum(
            1 for s in spans if s[2] == "pfunc.walsh_perm" and s[5] and s[5]["identity"]
        ),
        "walsh_perm_computed": sum(1 for s in spans if s[2] == "pfunc.walsh_perm" and s[5]),
        "transforms": len(transforms),
        "stage_elem_ops": sum(w[0] for w in work),
        "stage_bytes": sum(w[1] for w in work),
        # (duration, time its step spans cover) of every classify() call
        "classify_calls": [
            (s[4] - s[3], covered[s[0]]) for s in spans if s[2] == "bent.classify"
        ],
    }
