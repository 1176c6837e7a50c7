"""Span tracer installed from outside the program.

:func:`install` replaces the public entry points of the repo's layers
with thin wrappers, at class (or module) level, so every instance built
afterwards is traced.  Each call records one span: name, start, end and
the index of the enclosing span.  Spans live in flat ``array`` buffers
(24 bytes each) and are written out once, when the run ends.

A layer's self time is its spans' duration minus the part covered by
child spans; its call count counts only spans whose parent has another
name, so a method that calls its own base-class version counts once.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: (module, class or None for a module function, attribute, span name).
#: The simulation layers below ``World.run`` plus the sweep executor.
SIM_LAYERS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.sim.world", "World", "__init__", "world.build"),
    ("repro.sim.world", "World", "run", "world.run"),
    ("repro.sim.world", "World", "_record_metrics", "world.record_metrics"),
    ("repro.sim.engine", "Simulator", "run_until", "engine.run_until"),
    ("repro.sim.components.energy", "EnergyAccounting", "advance", "energy.advance"),
    ("repro.sim.components.energy", "EnergyAccounting", "recompute", "energy.recompute"),
    ("repro.sim.components.energy", "EnergyAccounting", "apply_handoffs",
     "energy.apply_handoffs"),
    ("repro.sim.components.clusters", "ClusterManager", "rotate", "clusters.rotate"),
    ("repro.sim.components.clusters", "ClusterManager", "relocate", "clusters.relocate"),
    ("repro.sim.components.gate", "RequestGate", "check", "gate.check"),
    ("repro.sim.components.fleet", "FleetController", "dispatch", "fleet.dispatch"),
    # Sortie legs fire as engine events; naming them keeps the engine's
    # self time down to the event loop itself.
    ("repro.sim.components.fleet", "FleetController", "_rv_arrive", "fleet.legs"),
    ("repro.sim.components.fleet", "FleetController", "_rv_finish_charge", "fleet.legs"),
    ("repro.sim.components.fleet", "FleetController", "_rv_home", "fleet.legs"),
    ("repro.experiments.executor", None, "map_configs", "executor.map_configs"),
)

#: The sweep-service client (the server runs in its own process).
CLIENT_LAYERS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.experiments.service", "SweepClient", "submit_configs", "service.submit"),
    ("repro.experiments.service", "RemoteGrid", "results", "service.results"),
)


class Tracer:
    """In-memory span store with a call stack for parent links."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        #: Sum and count of request-list lengths seen by top-level
        #: ``assign`` calls, and engine events fired by ``World.run``.
        self.request_nodes = [0, 0]
        self.events = 0
        # Wrappers bind these buffers; reset() empties them in place.
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_enter: Optional[Callable] = None,
        on_exit: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        fn = vars(owner)[attr]
        nid = self._id(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter(args)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if on_exit is not None:
                on_exit(result)
            return result

        setattr(owner, attr, traced)

    def reset(self) -> None:
        """Empty the span buffers in place (wrappers keep recording)."""
        del self.name_id[:], self.parent[:], self.start[:], self.end[:]
        del self._stack[1:]
        self.request_nodes[:] = [0, 0]
        self.events = 0

    # -- analysis ------------------------------------------------------

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``self_s``, ``total_s`` and ``calls``."""
        n = len(self.start)
        names = np.frombuffer(self.name_id, dtype=np.int32) if n else np.zeros(0, np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32) if n else np.zeros(0, np.int32)
        dur = (np.frombuffer(self.end) - np.frombuffer(self.start)) if n else np.zeros(0)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - covered
        parent_name = np.full(n, -1, dtype=np.int64)
        parent_name[has_parent] = names[parent[has_parent]]
        top = parent_name != names
        k = len(self.names)
        out = {}
        self_by = np.bincount(names, weights=self_s, minlength=k)
        total_by = np.bincount(names[top], weights=dur[top], minlength=k)
        calls_by = np.bincount(names[top], minlength=k)
        for i, name in enumerate(self.names):
            out[name] = {
                "self_s": float(self_by[i]),
                "total_s": float(total_by[i]),
                "calls": int(calls_by[i]),
            }
        return out

    def save(self, path) -> None:
        """Write every span (name, start, end, parent) to an ``.npz``."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def _scheduler_classes() -> List[type]:
    """Every class defining ``assign`` behind the registered schedulers."""
    from repro.registry import SCHEDULERS

    seen: List[type] = []
    for name in SCHEDULERS.names():
        for cls in type(SCHEDULERS.build(name, fleet_size=1)).__mro__:
            if "assign" in cls.__dict__ and cls not in seen:
                seen.append(cls)
    return seen


def install(tracer: Tracer, layers, schedulers: bool = True) -> Tracer:
    """Wrap ``layers`` (and, with ``schedulers``, every scheduler's
    ``assign``) so calls record spans into ``tracer``."""
    for module, cls, attr, name in layers:
        mod = importlib.import_module(module)
        owner = getattr(mod, cls) if cls else mod
        on_exit = None
        if (cls, attr) == ("World", "run"):
            def on_exit(summary, t=tracer):
                t.events += int(summary.events_fired)
        tracer.wrap(owner, attr, name, on_exit=on_exit)
    if schedulers:
        def on_assign(args, t=tracer):
            # Count the request list once per top-level call.
            if not t._stack[1:] or t.names[t.name_id[t._stack[-1]]] != "scheduler.assign":
                t.request_nodes[0] += len(args[1])
                t.request_nodes[1] += 1

        for cls in _scheduler_classes():
            tracer.wrap(cls, "assign", "scheduler.assign", on_enter=on_assign)
    return tracer
