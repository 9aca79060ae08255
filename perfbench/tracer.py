"""Outside-in tracer: spans around the public functions of each mcg layer.

The modules import one another's functions by name (``catalog`` binds
``compose`` and ``inner_witness`` from ``words``, ``certify`` binds
``equal`` and ``vocabulary`` from ``catalog``, ...), so patching the
defining module alone misses most calls.  :meth:`Tracer.install` replaces
the function in every ``mcg`` module namespace that binds it.

Spans are kept in memory as flat columns (name, start, end, parent) and
are summarised or written out when the traced pass ends.  A span's self
time is its duration minus the durations of its direct children, which
never overlap because the workloads are single-threaded.
"""

from __future__ import annotations

import json
import os
from array import array
from time import perf_counter
from types import ModuleType

# Layer functions, by module.  Each gets ``<module>.<function>.calls`` and
# ``<module>.<function>.self_s``; metric names drop the leading underscore
# of ``_tables``.
TARGETS = {
    "words": ("compose", "apply_aut", "inner_witness"),
    "surface": ("canonicalize",),
    "_tables": ("power_aut",),
    "catalog": ("vocabulary", "equal", "compose_mc", "power_mc", "validate"),
    "reps": ("fingerprint",),
    "certify": ("certify_thm9", "synthesize", "_mim_search", "verify"),
    "cli": ("main", "parse_word", "evaluate_ast"),
}

SPAN_NAMES = tuple(f"{m.lstrip('_')}.{f}" for m, fs in TARGETS.items()
                   for f in fs)

# Counts beside the calls: table letters produced by compose, witnesses
# found, equal calls that returned True and that reached inner_witness,
# and compose_mc calls inside a meet-in-the-middle search.
COUNTS = ("words.compose.letters", "words.inner_witness.found",
          "catalog.equal.true", "catalog.equal.exact",
          "certify._mim_search.expansions")


class Tracer:
    """Records one span per call of a layer function."""

    def __init__(self) -> None:
        self.names = SPAN_NAMES
        self._index = {n: i for i, n in enumerate(SPAN_NAMES)}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.paused = array("d")   # reference-kernel time inside the span
        self.counts = dict.fromkeys(COUNTS, 0)
        self._counters = {
            "words.compose": self._count_letters,
            "words.inner_witness": self._count_found,
            "catalog.equal": self._count_true,
        }
        self._stack: list[int] = []
        self._patched: list[tuple[ModuleType, str, object]] = []

    def install(self, modules: dict[str, ModuleType]) -> None:
        """Wrap every target in every module of ``modules`` that binds it."""
        for mod, funcs in TARGETS.items():
            for fname in funcs:
                orig = getattr(modules[mod], fname)
                wrapper = self._wrap(f"{mod.lstrip('_')}.{fname}", orig)
                for m in modules.values():
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patched.append((m, attr, orig))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        idx = self._index[name]
        stack, names, starts, ends, parents, paused = (
            self._stack, self.name, self.start, self.end, self.parent,
            self.paused)

        def enter() -> int:
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            paused.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            return sid

        def leave(sid: int) -> None:
            ends[sid] = perf_counter()
            stack.pop()

        count = self._counters.get(name)

        def wrapper(*args, **kwargs):
            sid = enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                leave(sid)
            if count is not None:
                count(out)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_letters(self, aut) -> None:
        self.counts["words.compose.letters"] += \
            sum(map(len, aut.fwd)) + sum(map(len, aut.bwd))

    def _count_found(self, witness) -> None:
        self.counts["words.inner_witness.found"] += witness is not None

    def _count_true(self, verdict) -> None:
        self.counts["catalog.equal.true"] += verdict is True

    def exclude(self, seconds: float) -> None:
        """Keep time spent outside the program out of the open span."""
        if self._stack:
            self.paused[self._stack[-1]] += seconds

    def summary(self) -> dict[str, float]:
        """Calls and self time of every span name, and the COUNTS."""
        n = len(self.name)
        k = len(self.names)
        calls = [0] * k
        self_s = [0.0] * k
        child = list(self.paused)
        for sid in range(n - 1, -1, -1):
            dur = self.end[sid] - self.start[sid]
            par = self.parent[sid]
            if par >= 0:
                child[par] += dur
            nm = self.name[sid]
            calls[nm] += 1
            self_s[nm] += dur - child[sid]
        equal_i = self._index["catalog.equal"]
        witness_i = self._index["words.inner_witness"]
        mim_i = self._index["certify._mim_search"]
        compose_mc_i = self._index["catalog.compose_mc"]
        # parents precede children, so one forward sweep marks spans that
        # run inside a _mim_search span
        in_mim = bytearray(n)
        exact: set[int] = set()
        expansions = 0
        for sid in range(n):
            par = self.parent[sid]
            nm = self.name[sid]
            if par >= 0:
                in_mim[sid] = in_mim[par] or self.name[par] == mim_i
                if nm == witness_i and self.name[par] == equal_i:
                    exact.add(par)
            if nm == compose_mc_i and in_mim[sid]:
                expansions += 1
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = self_s[i]
        out.update(self.counts)
        out["catalog.equal.exact"] = len(exact)
        out["certify._mim_search.expansions"] = expansions
        return out

    def write(self, path: str) -> None:
        """Write every span as columns: name index, start, end, parent."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": list(self.names),
                "name": self.name.tolist(),
                "start_s": [round(t - t0, 9) for t in self.start],
                "end_s": [round(t - t0, 9) for t in self.end],
                "parent": self.parent.tolist(),
            }, fh, separators=(",", ":"))
