"""Span tracing of the verifier's layers, installed from outside ``src/``.

The traced run wraps the public entry points of each layer
(:func:`install`) in a recorder.  Every call becomes a span
``(name, start, end, parent span, program id)``; spans are kept in
memory and written out once, when the run ends.

A span's *self time* is its duration minus the time covered by its
child spans.  Because spans nest strictly on each thread, the self
times of all spans under a root span add up to the root's duration:
``layers' self time + time outside any layer == traced phase``.
:meth:`Tracer.accounting` checks exactly that, so no unattributed gap
can hide a layer.

A layer's ``calls`` counts *entries* into the layer: a span whose
parent belongs to the same layer (``parse`` calling ``parse_program``,
``commute`` calling ``commute_under``) adds self time but no call.
"""

from __future__ import annotations

import gzip
import json
import sys
import threading
import time
from collections import defaultdict

#: the root span of a traced timed phase; its self time is the time
#: spent outside every layer (the benchmark loop, portfolio glue, ...)
ROOT = "outside"


class _Lane:
    """The spans, open-span stack and totals of one thread (so threads
    never update shared counters)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        # open frames: [name, span index, start, child time, parent index]
        self.stack: list[list] = []
        self.program: str | None = None
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)


class Tracer:
    """In-memory span recorder with per-layer call and self-time totals."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lanes: list[_Lane] = []
        self._lock = threading.Lock()

    # -- lanes ---------------------------------------------------------------

    def _lane(self) -> _Lane:
        lane = getattr(self._local, "lane", None)
        if lane is None:
            with self._lock:
                lane = _Lane()
                self._lanes.append(lane)
            self._local.lane = lane
        return lane

    def set_program(self, program: str | None) -> None:
        """Tag the spans this thread opens from now on with *program*."""
        self._lane().program = program

    def count(self, key: str, amount: float = 1) -> None:
        self._lane().counts[key] += amount

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> None:
        lane = self._lane()
        stack = lane.stack
        parent = stack[-1][1] if stack else -1
        index = len(lane.spans)
        lane.spans.append(None)
        stack.append([name, index, time.perf_counter(), 0.0, parent])

    def close(self) -> None:
        end = time.perf_counter()
        lane = self._lane()
        name, index, start, child, parent = lane.stack.pop()
        duration = end - start
        lane.spans[index] = (name, start, end, parent, lane.program)
        stack = lane.stack
        if stack:
            outer = stack[-1]
            outer[3] += duration
            if outer[0] != name:
                lane.calls[name] += 1
        else:
            lane.calls[name] += 1
        lane.self_s[name] += duration - child

    def wrap(self, name: str, fn, *, before=None, after=None):
        """*fn* recorded as a span of layer *name*.

        ``before(args)`` runs inside the span before the call and its
        result is handed to ``after(args, result, token)``, which runs
        after a normal return (counters are taken at the boundary).
        """
        tracer = self

        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                token = before(args) if before is not None else None
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result, token)
                return result
            finally:
                tracer.close()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        """The per-layer totals of all threads (copies)."""
        totals: dict = {"calls": {}, "self_s": {}, "counts": {}}
        with self._lock:
            lanes = list(self._lanes)
        for lane in lanes:
            for kind, table in totals.items():
                for key, value in getattr(lane, kind).items():
                    table[key] = table.get(key, 0) + value
        return totals

    def accounting(self, before: dict) -> dict:
        """Self time attributed since *before* against the duration of
        the :data:`ROOT` spans opened since then."""
        roots = 0.0
        for lane in self._lanes:
            for span in lane.spans:
                if span is not None and span[0] == ROOT:
                    roots += span[2] - span[1]
        attributed = sum(self.snapshot()["self_s"].values()) - sum(
            before["self_s"].values()
        )
        return {
            "traced_s": roots,
            "attributed_s": attributed,
            "gap_s": roots - attributed,
        }

    # -- forked children -----------------------------------------------------
    #
    # A forked child inherits the tracer with the parent's open frames.
    # It records its spans after the parent's, and reports them back so
    # the parent can adopt them as if they had been recorded in place.

    def child_mark(self) -> tuple:
        """Taken in a forked child before it does any work."""
        lane = self._lane()
        covered = lane.stack[-1][3] if lane.stack else 0.0
        return len(lane.spans), self.snapshot(), covered

    def child_report(self, mark: tuple) -> dict:
        """The child's spans and totals since *mark* (JSON-able)."""
        first, before, covered = mark
        lane = self._lane()
        after = self.snapshot()
        return {
            "spans": lane.spans[first:],
            "delta": {
                kind: {k: v - before[kind].get(k, 0)
                       for k, v in after[kind].items()}
                for kind in after
            },
            "covered": (lane.stack[-1][3] if lane.stack else 0.0) - covered,
        }

    def adopt(self, report: dict) -> None:
        """Merge a child's report into this (the parent's) lane."""
        lane = self._lane()
        lane.spans.extend(tuple(span) for span in report["spans"])
        for kind, delta in report["delta"].items():
            table = getattr(lane, kind)
            for key, value in delta.items():
                table[key] += value
        if lane.stack:
            lane.stack[-1][3] += report["covered"]

    def span_count(self) -> int:
        return sum(len(lane.spans) for lane in self._lanes)

    def write(self, path: str) -> None:
        """All spans as gzipped JSON: one list per thread."""
        lanes = [
            [list(span) for span in lane.spans if span is not None]
            for lane in self._lanes
        ]
        with gzip.open(path, "wt") as out:
            json.dump({"fields": ["name", "start", "end", "parent",
                                  "program"], "lanes": lanes}, out)


# ---------------------------------------------------------------------------
# Installing the wrappers
# ---------------------------------------------------------------------------

def _rebind(owner, attr: str, original, replacement) -> None:
    """Replace *original* on *owner* and on every loaded module that
    imported it by name (``from .triage import plan_portfolio``)."""
    setattr(owner, attr, replacement)
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if module is owner or not namespace:
            continue
        for key, value in list(namespace.items()):
            if value is original:
                setattr(module, key, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points.  Import ``repro`` first.

    Call before the programs are built, so ``lang.build`` sees them.
    """
    from repro.core import commutativity
    from repro.lang import interp, parser, program
    from repro.logic import fourier, solver, terms
    from repro.store import store
    from repro.verifier import checkproof, hoare, portfolio, refinement, triage

    def function(module, attr: str, name: str, **hooks) -> None:
        original = getattr(module, attr)
        _rebind(module, attr, original, tracer.wrap(name, original, **hooks))

    def method(cls, attr: str, name: str, **hooks) -> None:
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), **hooks))

    # lang.build: source text -> ConcurrentProgram
    function(parser, "parse_program", "lang.build")
    function(program, "instantiate", "lang.build")
    function(parser, "parse", "lang.build")

    # portfolio: the member race around single-order runs
    function(portfolio, "verify_portfolio", "portfolio")

    # triage.plan: ranking + ladder (scans outcome rows when a store is on)
    function(triage, "plan_portfolio", "triage.plan")

    # verify: one single-order CEGAR run
    def verify_after(args, result, token):
        tracer.count("verify.rounds", result.rounds)

    function(refinement, "verify", "verify", after=verify_after)

    # check: one proof-check round (exploration engine)
    def check_after(args, outcome, token):
        tracer.count("check.states", outcome.states_explored)

    method(checkproof.ProofChecker, "check", "check", after=check_after)

    # hoare.step: Floyd/Hoare transitions and the exit entailment
    method(hoare.FloydHoareAutomaton, "step", "hoare.step")
    method(hoare.FloydHoareAutomaton, "entails", "hoare.step")

    # comm: commutativity queries; a hit needs no solver check
    def comm_before(args):
        return args[0].stats.solver_checks

    def comm_after(args, result, checks):
        tracer.count("comm.queries")
        if args[0].stats.solver_checks == checks:
            tracer.count("comm.answered")

    cc = commutativity.ConditionalCommutativity
    method(cc, "commute_under", "comm", before=comm_before, after=comm_after)
    method(cc, "commute", "comm")
    method(commutativity.SemanticCommutativity, "commute", "comm")

    # solver: satisfiability questions and Fourier-Motzkin
    def sat_before(args):
        s = args[0].stats
        return (s.decisions, s.cache_hits + s.model_pool_hits
                + s.unknown_cache_hits)

    def sat_after(args, result, token):
        s = args[0].stats
        decisions, hits = token
        tracer.count("solver.decisions", s.decisions - decisions)
        tracer.count(
            "solver.cache_hits",
            s.cache_hits + s.model_pool_hits + s.unknown_cache_hits - hits,
        )

    for attr in ("is_sat", "model"):
        method(solver.Solver, attr, "solver.is_sat",
               before=sat_before, after=sat_after)
    for attr in ("rationally_feasible", "fm_project", "integer_model"):
        function(fourier, attr, "solver.fourier")

    # interp: the concrete interpreter (test oracle; the control layer)
    function(interp, "explore_concrete", "interp")
    function(interp, "replay", "interp")
    function(terms, "evaluate", "interp")

    # store: proof-store reads, writes and segment I/O
    def get_after(args, value, token):
        tracer.count("store.lookups")
        if value is not None:
            tracer.count("store.hits")

    ps = store.ProofStore
    method(ps, "__init__", "store.open")
    method(ps, "get", "store.get", after=get_after)
    method(ps, "items", "store.items")
    method(ps, "put", "store.put")
    method(ps, "flush", "store.flush")
