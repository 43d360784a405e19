"""In-memory span tracer that instruments the package from outside.

`Tracer.patch_function` replaces a public function with a timing wrapper
and rebinds that name in every `immimo` module that imported it, so calls
made inside the package are traced too. `patch_method` does the same for a
class attribute, and `instrument_net` wraps the `forward`/`backward` of one
model instance and of each of its layers.

A span is (id, name, start, end, parent, phase, tag, nested). The parent is
the innermost open span of the same thread; `nested` marks spans opened
inside another span of the same group, so busy time counts each group once.
Spans stay in memory until `save` writes them out. With `on` false every
wrapper calls straight through and records nothing.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np


def leaf_layers(net) -> list:
    """The model's layers in execution order, residual branches expanded."""
    leaves = []
    for layer in net.layers:
        leaves.extend(getattr(layer, "layers", None) or [layer])
    return leaves


class Tracer:
    def __init__(self):
        self.on = False
        self.spans: list[tuple] = []
        self.names: list[str] = []
        self.groups: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.phases: list[str] = []
        self.phase = self._phase_id("setup")
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- bookkeeping ------------------------------------------------------

    def _name_id(self, name: str, group: str | None = None) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.groups.append(group or name)
        return self._name_ids[name]

    def _phase_id(self, phase: str) -> int:
        if phase not in self.phases:
            self.phases.append(phase)
        return self.phases.index(phase)

    def set_phase(self, phase: str) -> None:
        self.phase = self._phase_id(phase)

    def count(self, key: str, amount: float = 1.0) -> None:
        """Add to a counter of the current phase (thread-safe)."""
        with self._lock:
            self.counts[(key, self.phases[self.phase])] += amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, nid: int, tag: int, fn, args, kwargs, observe=None):
        stack = self._stack()
        group = self.groups[nid]
        nested = any(g == group for _, g in stack)
        sid = next(self._ids)
        parent = stack[-1][0] if stack else 0
        stack.append((sid, group))
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.count(self.names[nid] + ".failed")
            raise
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, nid, t0, t1, parent, self.phase, tag, nested))
        if observe is not None:
            observe(self, args, out)
        return out

    def wrap(self, name: str, fn, group: str | None = None, observe=None):
        """Timing wrapper around fn; `observe(tracer, args, result)` runs
        after the span closes, so its cost is not charged to the span."""
        nid = self._name_id(name, group)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            return self._call(nid, 0, fn, args, kwargs, observe)

        return traced

    class _Span:
        def __init__(self, tracer, nid, tag):
            self.tracer, self.nid, self.tag = tracer, nid, tag

        def __enter__(self):
            tr = self.tracer
            stack = tr._stack()
            self.sid = next(tr._ids)
            self.parent = stack[-1][0] if stack else 0
            stack.append((self.sid, tr.groups[self.nid]))
            self.t0 = perf_counter()
            return self

        def __exit__(self, *exc):
            t1 = perf_counter()
            tr = self.tracer
            tr._stack().pop()
            tr.spans.append((self.sid, self.nid, self.t0, t1, self.parent,
                             tr.phase, self.tag, False))
            return False

    def span(self, name: str, tag: int = 0):
        """Context manager for a span opened by the benchmark itself."""
        if not self.on:
            return contextlib.nullcontext()
        return self._Span(self, self._name_id(name), tag)

    # -- instrumentation --------------------------------------------------

    def patch_function(self, module, attr: str, name: str, group: str | None = None,
                       observe=None) -> None:
        """Wrap module.attr and rebind it wherever an immimo module holds it."""
        orig = getattr(module, attr, None)
        if orig is None:
            print(f"trace: {module.__name__}.{attr} not found; {name} not traced",
                  file=sys.stderr)
            return
        traced = self.wrap(name, orig, group, observe)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "immimo" or mod_name.startswith("immimo.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, traced)

    def patch_method(self, cls, attr: str, name: str, group: str | None = None) -> None:
        raw = cls.__dict__.get(attr)
        if raw is None:
            print(f"trace: {cls.__name__}.{attr} not found; {name} not traced",
                  file=sys.stderr)
            return
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, group)))
        else:
            setattr(cls, attr, self.wrap(name, raw, group))

    def instrument_net(self, net, prefix: str) -> None:
        """Trace net.forward/backward and each leaf layer's passes.

        Leaf layers are numbered in execution order, looking through
        residual wrappers; spans are named `<prefix>.<NN>_<kind>.fwd`
        (train mode), `.infer` (inference) and `.bwd`, tagged with the batch
        size.
        """
        self._wrap_passes(net, prefix)
        for i, layer in enumerate(leaf_layers(net)):
            self._wrap_passes(layer, f"{prefix}.{i:02d}_{layer.kind}")

    def _wrap_passes(self, obj, base: str) -> None:
        fwd, infer, bwd = (self._name_id(f"{base}.{k}") for k in ("fwd", "infer", "bwd"))
        forward, backward = obj.forward, obj.backward

        def traced_forward(x, train=False):
            if not self.on:
                return forward(x, train=train)
            return self._call(fwd if train else infer, len(x), forward, (x,),
                              {"train": train})

        def traced_backward(grad):
            if not self.on:
                return backward(grad)
            return self._call(bwd, len(grad), backward, (grad,), {})

        obj.forward = traced_forward
        obj.backward = traced_backward

    # -- results ----------------------------------------------------------

    def table(self) -> np.ndarray:
        """Spans as a structured array (copy), one row per span."""
        dt = [("id", "i8"), ("name", "i4"), ("start", "f8"), ("end", "f8"),
              ("parent", "i8"), ("phase", "i4"), ("tag", "i8"), ("nested", "?")]
        return np.array(self.spans, dtype=dt) if self.spans else np.zeros(0, dtype=dt)

    def save(self, path_stem: str, summary: dict) -> None:
        """Write spans (`.npz`) and the derived summary (`.json`)."""
        np.savez_compressed(path_stem + ".npz", spans=self.table(),
                            names=np.array(self.names), phases=np.array(self.phases))
        with open(path_stem + ".json", "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")


class SpanStats:
    """Per-name aggregates over a span table: durations, self time, busy."""

    def __init__(self, tracer: Tracer):
        t = tracer.table()
        self.names = tracer.names
        self.groups = tracer.groups
        self.phases = tracer.phases
        self.t = t
        dur = t["end"] - t["start"]
        self.dur = dur
        child = np.zeros(len(t))
        if len(t):
            index = {sid: i for i, sid in enumerate(t["id"])}
            for i, p in enumerate(t["parent"]):
                j = index.get(int(p))
                if j is not None:
                    child[j] += dur[i]
        self.self_time = dur - child

    def mask(self, names, phases=None, tag=None, outer_only=False):
        ids = [i for i, n in enumerate(self.names) if n in names]
        m = np.isin(self.t["name"], ids)
        if phases is not None:
            pids = [i for i, p in enumerate(self.phases) if p in phases]
            m &= np.isin(self.t["phase"], pids)
        if tag is not None:
            m &= self.t["tag"] == tag
        if outer_only:
            m &= ~self.t["nested"]
        return m

    def group_names(self, group: str) -> list[str]:
        return [n for n, g in zip(self.names, self.groups) if g == group]

    def busy_s(self, group: str, phases) -> float:
        """Time inside the group, counting nested same-group spans once."""
        m = self.mask(self.group_names(group), phases, outer_only=True)
        return float(self.dur[m].sum())

    def calls(self, name: str, phases) -> int:
        return int(self.mask([name], phases).sum())

    def self_s(self, name: str, phases) -> float:
        return float(self.self_time[self.mask([name], phases)].sum())

    def median_s(self, name: str, phases=None, tag=None) -> float:
        d = self.dur[self.mask([name], phases, tag)]
        return float(np.median(d)) if len(d) else float("nan")

    def per_round_median_s(self, names, round_name: str, phases) -> float:
        """Median over rounds of the time in `names` spans directly under
        each `round_name` span."""
        rounds = self.mask([round_name], phases)
        if not rounds.any():
            return float("nan")
        totals = {int(sid): 0.0 for sid in self.t["id"][rounds]}
        m = self.mask(names, phases)
        for p, d in zip(self.t["parent"][m], self.dur[m]):
            if int(p) in totals:
                totals[int(p)] += d
        return float(np.median(list(totals.values())))

    def summary(self) -> dict:
        """{name: {phase: {calls, total_ms, self_ms}}} for the trace file."""
        out: dict = {}
        for i, name in enumerate(self.names):
            for j, phase in enumerate(self.phases):
                m = (self.t["name"] == i) & (self.t["phase"] == j)
                if m.any():
                    out.setdefault(name, {})[phase] = {
                        "calls": int(m.sum()),
                        "total_ms": float(self.dur[m].sum() * 1e3),
                        "self_ms": float(self.self_time[m].sum() * 1e3)}
        return out
