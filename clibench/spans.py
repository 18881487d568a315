"""Per-layer tracing from outside the package.

``Tracer.install`` replaces the public functions of the five layer modules,
the public methods of their public classes, ``StateVector`` construction and
numpy's Hermitian eigensolvers with wrappers, in every ``densecode`` module
namespace that holds them; ``uninstall`` puts the originals back.  Each call
opens a span (layer, name, start, end, parent, op id).  A span's self time is
its duration minus that of its direct children, so the self times of one op
add up to the op's time.  Totals are kept online; the first ``KEEP_SPANS``
spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "statevec", "entanglement", "coding", "security")
BENCH = "bench"  # the op's own span: harness code outside every layer
REDUCTIONS = {"reduced_density", "partial_trace"}
KEEP_SPANS = 50_000


class Tracer:
    def __init__(self):
        self.self_s = Counter()  # layer -> self seconds
        self.calls = Counter()  # layer -> wrapped calls (constructions apart)
        self.ops = 0
        self.op_s = 0.0
        self.states_built = 0
        self.bytes_built = 0
        self.reductions = 0
        self.eig_matrices = 0
        self.sim_rounds = 0
        self.sim_s = 0.0
        self.op_records: list[dict] = []  # per traced op: seconds by layer
        self.spans: list[list] = []  # [name, start, end, parent id, op id]
        self.dropped = 0
        self._stack: list[list] = []  # [layer, start, child seconds, span id]
        self._op_id = -1
        self._before: tuple[dict, float] = ({}, 0.0)  # totals at op start
        self._saved: list[tuple] = []

    # -- spans -----------------------------------------------------------

    def _enter(self, layer: str, name: str) -> None:
        sid = -1
        if len(self.spans) < KEEP_SPANS:
            sid = len(self.spans)
            parent = self._stack[-1][3] if self._stack else -1
            self.spans.append([f"{layer}.{name}", 0.0, 0.0, parent, self._op_id])
        elif self._op_id >= 0:
            self.dropped += 1
        self._stack.append([layer, perf_counter(), 0.0, sid])

    def _exit(self) -> float:
        end = perf_counter()
        layer, start, child, sid = self._stack.pop()
        dur = end - start
        self.self_s[layer] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if sid >= 0:
            self.spans[sid][1:3] = [start, end]
        return dur

    def op_begin(self) -> None:
        self._op_id = self.ops
        self._before = (dict(self.self_s), self.sim_s)
        self._enter(BENCH, "op")

    def op_end(self) -> None:
        dur = self._exit()
        self.op_s += dur
        self.ops += 1
        self._op_id = -1
        before, sim_before = self._before
        record = {layer: self.self_s[layer] - before.get(layer, 0.0)
                  for layer in LAYERS + (BENCH,)}
        record.update(op=dur, sim=self.sim_s - sim_before)
        self.op_records.append(record)

    # -- wrapping --------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        reduction = name in REDUCTIONS
        simulation = name == "security_simulation"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[layer] += 1
            tracer.reductions += reduction
            tracer._enter(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = tracer._exit()
                if simulation:  # security_simulation(n, attack, rounds, rng, ...)
                    tracer.sim_s += dur
                    tracer.sim_rounds += kwargs["rounds"] if "rounds" in kwargs else args[2]
        return traced

    def _wrap_construction(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(sv):
            tracer.states_built += 1
            tracer.bytes_built += 16 * 2**sv.n_qubits
            tracer._enter("statevec", "StateVector()")
            try:
                return fn(sv)
            finally:
                tracer._exit()
        return traced

    def _wrap_eig(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            shape = np.shape(a)
            tracer.eig_matrices += int(np.prod(shape[:-2], dtype=np.int64))
            return fn(a, *args, **kwargs)
        return counted

    def _patch(self, owner, name: str, new) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self) -> None:
        mods = [sys.modules[f"densecode.{layer}"] for layer in LAYERS]
        namespaces = mods + [sys.modules["densecode"]]
        replaced = {}
        for layer, mod in zip(LAYERS, mods):
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._install_class(layer, obj)
                elif callable(obj):
                    replaced[id(obj)] = self._wrap(layer, name, obj)
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if id(obj) in replaced and callable(obj):
                    self._patch(ns, name, replaced[id(obj)])
        statevector = sys.modules["densecode.statevec"].StateVector
        self._patch(statevector, "__post_init__",
                    self._wrap_construction(statevector.__post_init__))
        for name in ("eigvalsh", "eigh"):
            self._patch(np.linalg, name, self._wrap_eig(getattr(np.linalg, name)))

    def _install_class(self, layer: str, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(attr, classmethod):
                wrapped = self._wrap(layer, f"{cls.__name__}.{name}", attr.__func__)
                self._patch(cls, name, classmethod(wrapped))
            elif callable(attr) and hasattr(attr, "__code__"):
                self._patch(cls, name, self._wrap(layer, f"{cls.__name__}.{name}", attr))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    # -- results ---------------------------------------------------------

    def per_op(self, scale) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each a mean per traced op: (value, unit).
        ``scale(i, seconds)`` puts traced op i's times on the reference
        host speed."""
        k = max(self.ops, 1)

        def total(key: str) -> float:
            return sum(scale(i, r[key]) for i, r in enumerate(self.op_records))

        out = {f"{layer}.self_ms": (1e3 * total(layer) / k, "ms") for layer in LAYERS}
        sim_s = total("sim")
        out.update({
            "statevec.calls": (self.calls["statevec"] / k, "count"),
            "statevec.states_built": (self.states_built / k, "count"),
            "statevec.mib_built": (self.bytes_built / 2**20 / k, "MiB"),
            "entanglement.reductions": (self.reductions / k, "count"),
            "entanglement.eig_matrices": (self.eig_matrices / k, "count"),
            "coding.calls": (self.calls["coding"] / k, "count"),
            "security.rounds_per_s": (self.sim_rounds / sim_s if sim_s else 0.0, "1/s"),
            "bench.self_ms": (1e3 * total(BENCH) / k, "ms"),
            "trace.op_ms": (1e3 * total("op") / k, "ms"),
        })
        return out

    def accounting_gap(self) -> float:
        """|sum of self times - traced op time| / op time; 0 up to rounding."""
        total = sum(self.self_s[layer] for layer in LAYERS + (BENCH,))
        return abs(total - self.op_s) / self.op_s if self.op_s else 0.0

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
