"""In-memory span tracer that instruments loceret from the outside.

Installing a Tracer replaces selected module attributes and Field/PlanCache
methods with timing wrappers, so calls that cross layers are caught without
touching the package: storagesim -> localrepair.repair, localrepair ->
detect/recover, codeops -> is_edr_set, cli -> codeops.*, and every Field
operation.  Uninstalling restores the original objects.

Three kinds of wrapped call:
  span  - pushed on the per-thread stack and kept as an individual record
          (name, layer, start, end, parent, operation id);
  hot   - pushed like a span, but only aggregated as count, total and self time,
          because it runs thousands of times per operation;
  leaf  - Field arithmetic; never calls another wrapped function, so it is only
          timed and aggregated, without a stack frame.
A span's self time is its duration minus the part covered by its children.
"""

from __future__ import annotations

import threading
import time

from loceret import (cli, codeops, descriptor, galois, localrepair, rscodes,
                     storagesim)

LAYERS = ("galois", "codeops", "rscodes", "localrepair", "storagesim",
          "descriptor", "cli")

# (module, attribute, kind); module attributes are replaced in every loceret
# module that holds the same function object (e.g. cli.build_code).
_FUNCTIONS = (
    (descriptor, "build_code", "span"), (descriptor, "build_field", "span"),
    (descriptor, "load_descriptor", "span"),
    (rscodes, "rs_make", "span"), (rscodes, "lrcrs_make", "span"),
    (rscodes, "encode", "hot"),
    (codeops, "code_from_rows", "span"), (codeops, "dual", "span"),
    (codeops, "shorten", "hot"), (codeops, "puncture", "hot"),
    (codeops, "min_distance", "span"), (codeops, "ghw", "span"),
    (codeops, "t_locality", "span"), (codeops, "check_bounds", "span"),
    (codeops, "rref", "hot"), (codeops, "is_edr_set", "hot"),
    (codeops, "_rank_cols", "hot"),
    (localrepair, "plan_rs", "hot"), (localrepair, "plan_lrcrs", "hot"),
    (localrepair, "plan_linear", "hot"),
    (localrepair, "truncate_detection", "hot"),
    (localrepair, "repair", "hot"), (localrepair, "detect", "hot"),
    (localrepair, "recover", "hot"),
    (storagesim, "run_sim", "span"), (storagesim, "build_plans", "span"),
    (storagesim, "_tally_range", "span"), (storagesim, "ingest", "span"),
    (storagesim, "emit", "span"),
    (cli, "main", "span"), (cli, "cmd_analyze", "span"),
)
_FIELD_LEAVES = ("add", "mul", "neg", "inv")
_MODULES = (galois, codeops, rscodes, localrepair, storagesim, descriptor, cli)

PLAN_BUILDERS = ("localrepair.plan_rs", "localrepair.plan_lrcrs",
                 "localrepair.plan_linear")


class _Frame:
    __slots__ = ("name", "start", "child", "kids", "span_id")

    def __init__(self, name, start, span_id):
        self.name = name
        self.start = start
        self.child = 0.0          # duration of hot and leaf children
        self.kids = []            # (start, end) of recorded children
        self.span_id = span_id


class _ThreadState:
    def __init__(self):
        self.stack = [_Frame("bench", 0.0, None)]
        self.agg = {}             # name -> [count, total, self]


class Tracer:
    """Collects spans and aggregates while installed; see the module doc."""

    def __init__(self, phase: str):
        self.phase = phase
        self.op_id = None         # set by the caller; shared by one operation's spans
        self.spans = []           # dicts, appended from any thread
        self.wall = self.cpu = 0.0  # seconds installed, summed over installs
        self._states = []
        self._tls = threading.local()
        self._main_state = self._state()
        self._saved = []
        self._next_id = 0
        self._id_lock = threading.Lock()

    # -- bookkeeping ----------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._tls.state
        except AttributeError:
            state = self._tls.state = _ThreadState()
            self._states.append(state)
            return state

    def _new_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    def _bump(self, name: str):
        """Count an event in the calling thread's aggregates (no time)."""
        agg = self._state().agg
        rec = agg.get(name)
        if rec is None:
            rec = agg[name] = [0, 0.0, 0.0]
        rec[0] += 1

    def _enter(self, name, recorded):
        state = self._state()
        frame = _Frame(name, time.perf_counter(),
                       self._new_id() if recorded else None)
        state.stack.append(frame)
        return state, frame

    def _exit(self, state, frame, layer):
        end = time.perf_counter()
        state.stack.pop()
        dur = end - frame.start
        covered = frame.child + _union(frame.kids)
        self_time = max(0.0, dur - covered)
        if frame.span_id is None:
            rec = state.agg.get(frame.name)
            if rec is None:
                rec = state.agg[frame.name] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += dur
            rec[2] += self_time
            state.stack[-1].child += dur
            return
        parent = state.stack[-1]
        if parent.span_id is None and len(state.stack) == 1 and state is not self._main_state:
            # a worker thread's top-level span belongs to the main thread's
            # innermost open span (run_sim hands chunks to a thread pool)
            parent = self._main_state.stack[-1]
        parent.kids.append((frame.start, end))
        self.spans.append({"id": frame.span_id, "parent": parent.span_id,
                           "op": self.op_id, "name": frame.name, "layer": layer,
                           "start": frame.start, "end": end, "self": self_time})

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, fn, name, kind):
        layer = name.split(".", 1)[0]
        recorded = kind == "span"

        def wrapper(*args, **kwargs):
            state, frame = self._enter(name, recorded)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(state, frame, layer)
        return wrapper

    def _wrap_leaf(self, fn, name):
        clock = time.perf_counter

        def leaf(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                state = self._state()
                rec = state.agg.get(name)
                if rec is None:
                    rec = state.agg[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt
                state.stack[-1].child += dt
        return leaf

    def _wrap_get_or_build(self, fn):
        traced = self._wrap(fn, "localrepair.PlanCache.get_or_build", "hot")
        bump = self._bump

        def get_or_build(cache, key, build):
            def counted():
                bump("localrepair.PlanCache.miss")
                return build()
            return traced(cache, key, counted)
        return get_or_build

    def _wrap_repair(self, fn):
        traced = self._wrap(fn, "localrepair.repair", "hot")
        bump = self._bump

        def repair(plan, helper_values):
            outcome = traced(plan, helper_values)
            if outcome.detected:
                bump("localrepair.repair.detected")
            return outcome
        return repair

    # -- install / uninstall ------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self):
        for module, attr, kind in _FUNCTIONS:
            original = getattr(module, attr)
            name = f"{module.__name__.split('.')[-1]}.{attr}"
            if name == "localrepair.repair":
                new = self._wrap_repair(original)
            else:
                new = self._wrap(original, name, kind)
            for holder in _MODULES:
                if getattr(holder, attr, None) is original:
                    self._replace(holder, attr, new)
        for attr in _FIELD_LEAVES:
            self._replace(galois.Field, attr, self._wrap_leaf(
                galois.Field.__dict__[attr], f"galois.Field.{attr}"))
        self._replace(galois.Field, "__init__", self._wrap(
            galois.Field.__dict__["__init__"], "galois.Field.__init__", "hot"))
        self._replace(localrepair.PlanCache, "get_or_build", self._wrap_get_or_build(
            localrepair.PlanCache.__dict__["get_or_build"]))
        self.wall0 = time.perf_counter()
        self.cpu0 = time.process_time()
        return self

    def __exit__(self, *exc):
        self.wall += time.perf_counter() - self.wall0
        self.cpu += time.process_time() - self.cpu0
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    # -- results --------------------------------------------------------------------

    def aggregates(self) -> dict:
        """name -> {"count", "total_s", "self_s"} over every thread."""
        out = {}
        for state in self._states:
            for name, (count, total, self_time) in state.agg.items():
                rec = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
                rec["count"] += count
                rec["total_s"] += total
                rec["self_s"] += self_time
        for span in self.spans:
            rec = out.setdefault(span["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            rec["count"] += 1
            rec["total_s"] += span["end"] - span["start"]
            rec["self_s"] += span["self"]
        return out

    def count(self, name: str) -> int:
        return self.aggregates().get(name, {}).get("count", 0)

    def total_s(self, name: str) -> float:
        return self.aggregates().get(name, {}).get("total_s", 0.0)

    def layer_self_s(self) -> dict:
        """Self time per layer; a layer's shares of their sum are the time
        spent in that layer's own code while inside loceret."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, rec in self.aggregates().items():
            out[name.split(".", 1)[0]] += rec["self_s"]
        return out

    def to_dict(self) -> dict:
        return {"phase": self.phase, "wall_s": self.wall, "cpu_s": self.cpu,
                "aggregates": self.aggregates(), "spans": self.spans}


def _union(intervals) -> float:
    """Total length covered by possibly overlapping (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total
