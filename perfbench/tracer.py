"""Spans around girthlocal's public functions, installed from outside.

The tracer wraps module functions and class methods of the installed
``girthlocal`` package, records one span per call (name, start, end, parent
span, and an optional count such as rounds) in memory, and restores the
originals on ``uninstall``.  Nothing in the program is edited.

Pool workers forked by the CLI inherit the wrappers.  A worker appends each
finished top-level span tree to a JSON-lines file in ``spill_dir``; the
process that owns the tracer merges those files under the ``cli.main`` span
that was running, so worker time counts as that span's children.  Start and
end are ``time.perf_counter`` readings, which share one clock across
processes on Linux.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from pathlib import Path

# Per-layer metrics the traced run reports: name -> unit.  BENCHMARK.json
# lists the same names in the same order.
KERNEL_TARGETS = ("is3", "is3_plain", "is4", "cut3", "cut3_linear")
PER_LAYER = {}
for _t in KERNEL_TARGETS:
    PER_LAYER[f"kernels.{_t}.us_per_round"] = "us"
    PER_LAYER[f"kernels.{_t}.rounds"] = "count"
PER_LAYER.update({
    "evolution_core.overhead_s": "s",
    "evolution_core.chunks": "count",
    "config_model.generate_s": "s",
    "config_model.generate.calls": "count",
    "config_model.load_edge_list_s": "s",
    "is_local.setup_s": "s",
    "is_local.settle_s": "s",
    "is_local.contract_s": "s",
    "is_local.contract.calls": "count",
    "is_local.delete_s": "s",
    "is_local.delete.calls": "count",
    "is_local.run_self_s": "s",
    "is_local.run.calls": "count",
    "is_local.rounds": "count",
    "is_local.verify_s": "s",
    "cut_local.setup_s": "s",
    "cut_local.closure_self_s": "s",
    "cut_local.closure.calls": "count",
    "cut_local.query_s": "s",
    "cut_local.query.calls": "count",
    "cut_local.commit_s": "s",
    "cut_local.commit.calls": "count",
    "cut_local.whiten.calls": "count",
    "cut_local.eliminate_white.calls": "count",
    "cut_local.reduce_rrr.calls": "count",
    "cut_local.run_self_s": "s",
    "cut_local.rounds": "count",
    "exact_oracle.max_independent_set_s": "s",
    "exact_oracle.max_cut_s": "s",
    "cli.self_s": "s",
    "cli.fanout_efficiency": "ratio",
    "trace.overhead_s": "s",
    "is_gap": "ratio",
    "cut_gap": "ratio",
})


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.pid = os.getpid()
        self.in_worker = False
        self.names: list = []
        self._name_ids: dict = {}
        self._patches: list = []
        self._clear()

    def _clear(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self.stack: list = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- recording -----------------------------------------------------------

    def _open(self, nid: int) -> int:
        if os.getpid() != self.pid:
            # first span in a forked pool worker: drop the owner's spans
            self.pid = os.getpid()
            self.in_worker = True
            self._clear()
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.value.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()
        if self.in_worker and not self.stack:
            self._spill()

    def _spill(self) -> None:
        rows = [[self.names[n], start, end, parent, value]
                for n, start, end, parent, value in zip(
                    self.name, self.start, self.end, self.parent, self.value)]
        path = self.spill_dir / f"spans-{self.pid}.jsonl"
        with path.open("a") as fh:
            fh.write(json.dumps(rows) + "\n")
        self._clear()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        i = self._open(self._name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(i)

    def merge_spills(self, parent: int) -> None:
        """Adopt span trees that pool workers wrote, under span ``parent``."""
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                base = len(self.start)
                for name, start, end, par, value in json.loads(line):
                    self.name.append(self._name_id(name))
                    self.parent.append(parent if par < 0 else base + par)
                    self.start.append(start)
                    self.end.append(end)
                    self.value.append(value)
            path.unlink()

    # -- wrapping ------------------------------------------------------------

    def _wrapper(self, fn, name, value):
        fixed = None if callable(name) else self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self._name_id(name(args))
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
                if value is not None:
                    self.value[i] = value(result)
            finally:
                self._close(i)
            return result

        return traced

    def wrap_method(self, cls, attr: str, name, value=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, name, value))

    def wrap_function(self, module, attr: str, name, value=None) -> None:
        """Wrap ``module.attr`` and every girthlocal global bound to it,
        so callers that imported the name directly see the wrapper too."""
        original = getattr(module, attr)
        traced = self._wrapper(original, name, value)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("girthlocal"):
                continue
            for key, obj in list(vars(mod).items()):
                if obj is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, traced)

    def install(self) -> None:
        from girthlocal import config_model, exact_oracle, evolution_core
        from girthlocal import cut_local_algorithm as cut_local
        from girthlocal import is_local_algorithm as is_local
        from girthlocal.cut_evolution import CutRules
        from girthlocal.is_evolution import Is3Rules, Is4Rules

        def rounds_done(result):
            return result[0]

        def result_rounds(result):
            return result.rounds

        self.wrap_method(Is3Rules, "run_chunk",
                         lambda a: "kernels.is3" if a[0].improvement
                         else "kernels.is3_plain", rounds_done)
        self.wrap_method(Is4Rules, "run_chunk", "kernels.is4", rounds_done)
        self.wrap_method(CutRules, "run_chunk",
                         lambda a: "kernels.cut3_linear"
                         if a[0].mode == "linear_solve" else "kernels.cut3",
                         rounds_done)
        self.wrap_function(evolution_core, "integrate",
                           "evolution_core.integrate")
        self.wrap_function(config_model, "generate", "config_model.generate")
        self.wrap_function(config_model, "load_edge_list",
                           "config_model.load_edge_list")
        self.wrap_function(is_local, "run", "is_local.run", result_rounds)
        self.wrap_function(is_local, "verify_independent", "is_local.verify")
        for attr, name in (("__init__", "is_local.setup"),
                           ("settle", "is_local.settle"),
                           ("contract", "is_local.contract"),
                           ("delete", "is_local.delete")):
            self.wrap_method(is_local.SurvivalGraph, attr, name)
        self.wrap_method(cut_local.CutProcess, "run", "cut_local.run",
                         result_rounds)
        for attr, name in (("__init__", "cut_local.setup"),
                           ("closure", "cut_local.closure"),
                           ("query", "cut_local.query"),
                           ("commit", "cut_local.commit"),
                           ("whiten", "cut_local.whiten"),
                           ("eliminate_white", "cut_local.eliminate_white"),
                           ("reduce_rrr", "cut_local.reduce_rrr")):
            self.wrap_method(cut_local.CutProcess, attr, name)
        self.wrap_function(exact_oracle, "max_independent_set",
                           "exact_oracle.max_independent_set")
        self.wrap_function(exact_oracle, "max_cut", "exact_oracle.max_cut")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summary -------------------------------------------------------------

    def totals(self) -> dict:
        """name -> [calls, total seconds, self seconds, summed value].

        Self time is a span's duration minus the part of its interval that
        its children cover; children from pool workers may overlap, so the
        covered part is the length of the union of their intervals.
        """
        kids: dict = {}
        for i, p in enumerate(self.parent):
            if p >= 0:
                kids.setdefault(p, []).append((self.start[i], self.end[i]))
        out: dict = {}
        for i, nid in enumerate(self.name):
            lo, hi = self.start[i], self.end[i]
            covered = 0.0
            reach = lo
            for a, b in sorted(kids.get(i, ())):
                a, b = max(a, reach), min(b, hi)
                if b > a:
                    covered += b - a
                    reach = b
            row = out.setdefault(self.names[nid], [0, 0.0, 0.0, 0.0])
            row[0] += 1
            row[1] += hi - lo
            row[2] += hi - lo - covered
            row[3] += self.value[i]
        return out

    def layer_metrics(self) -> dict:
        """The span-derived part of PER_LAYER, as name -> value."""
        t = self.totals()

        def get(name, col):
            return t.get(name, [0, 0.0, 0.0, 0.0])[col]

        calls, total, self_s, value = 0, 1, 2, 3
        m = {}
        for target in KERNEL_TARGETS:
            span = f"kernels.{target}"
            rounds = get(span, value)
            m[f"{span}.us_per_round"] = (
                1e6 * get(span, total) / rounds if rounds else 0.0)
            m[f"{span}.rounds"] = int(rounds)
        m["evolution_core.overhead_s"] = get("evolution_core.integrate",
                                             self_s)
        m["evolution_core.chunks"] = sum(get(f"kernels.{x}", calls)
                                         for x in KERNEL_TARGETS)
        m["config_model.generate_s"] = get("config_model.generate", total)
        m["config_model.generate.calls"] = get("config_model.generate", calls)
        m["config_model.load_edge_list_s"] = get(
            "config_model.load_edge_list", total)
        m["is_local.setup_s"] = get("is_local.setup", total)
        m["is_local.settle_s"] = get("is_local.settle", total)
        for op in ("contract", "delete"):
            m[f"is_local.{op}_s"] = get(f"is_local.{op}", total)
            m[f"is_local.{op}.calls"] = get(f"is_local.{op}", calls)
        m["is_local.run_self_s"] = get("is_local.run", self_s)
        m["is_local.run.calls"] = get("is_local.run", calls)
        m["is_local.rounds"] = int(get("is_local.run", value))
        m["is_local.verify_s"] = get("is_local.verify", total)
        m["cut_local.setup_s"] = get("cut_local.setup", total)
        m["cut_local.closure_self_s"] = get("cut_local.closure", self_s)
        m["cut_local.closure.calls"] = get("cut_local.closure", calls)
        for op in ("query", "commit"):
            m[f"cut_local.{op}_s"] = get(f"cut_local.{op}", total)
            m[f"cut_local.{op}.calls"] = get(f"cut_local.{op}", calls)
        for op in ("whiten", "eliminate_white", "reduce_rrr"):
            m[f"cut_local.{op}.calls"] = get(f"cut_local.{op}", calls)
        m["cut_local.run_self_s"] = get("cut_local.run", self_s)
        m["cut_local.rounds"] = int(get("cut_local.run", value))
        m["exact_oracle.max_independent_set_s"] = get(
            "exact_oracle.max_independent_set", total)
        m["exact_oracle.max_cut_s"] = get("exact_oracle.max_cut", total)
        m["cli.self_s"] = get("cli.main", self_s)
        return m
