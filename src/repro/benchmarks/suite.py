"""The benchmark registry: the corpora used by the evaluation harness.

Two suites, mirroring §8 of the paper:

* ``svcomp`` — SV-COMP-like, dominated by incorrect (bug-finding) tasks;
* ``weaver`` — Weaver-like, almost entirely correct, proof-heavy.

Each entry records the *expected* verdict, used both as test oracle and
to split result tables into correct/incorrect rows.  Each entry also
declares its program's name next to its factory, so listing or looking
up the registry builds nothing: a program is built only by
:meth:`Benchmark.build` (tests check every declared name against the
built program's).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..lang import ConcurrentProgram
from . import arrays, mutex, svcomp, weaver
from .bluetooth import bluetooth

Factory = Callable[[], ConcurrentProgram]


@dataclass(frozen=True)
class Benchmark:
    """A named program instance with its ground-truth verdict."""

    name: str
    suite: str  # "svcomp" | "weaver"
    expected: str  # "correct" | "incorrect"
    factory: Factory

    def build(self) -> ConcurrentProgram:
        return self.factory()


_SVCOMP_CORRECT: list[tuple[str, Factory]] = [
    ("mutex-atomic(2)", lambda: svcomp.mutex_atomic(2)),
    ("mutex-atomic(3)", lambda: svcomp.mutex_atomic(3)),
    ("counter-sum(2)", lambda: svcomp.counter_sum(2)),
    ("counter-sum(3)", lambda: svcomp.counter_sum(3)),
    ("producer-consumer(2)", lambda: svcomp.producer_consumer(2)),
    ("producer-consumer(3)", lambda: svcomp.producer_consumer(3)),
    ("bank-account(2)", lambda: svcomp.bank_account(2)),
    ("peterson", lambda: svcomp.peterson()),
    ("ticket-lock(2)", lambda: svcomp.ticket_lock(2)),
    ("flag-barrier(2)", lambda: svcomp.flag_barrier(2)),
    ("reorder(1)", lambda: svcomp.reorder(1)),
    ("reorder(2)", lambda: svcomp.reorder(2)),
    ("inc-dec(2)", lambda: svcomp.increment_decrement(2)),
    ("mutex-atomic(4)", lambda: svcomp.mutex_atomic(4)),
    ("counter-sum(4)", lambda: svcomp.counter_sum(4)),
    ("flag-barrier(3)", lambda: svcomp.flag_barrier(3)),
    ("bluetooth(2)", lambda: bluetooth(2)),
    ("bluetooth(3)", lambda: bluetooth(3)),
    ("bluetooth(4)", lambda: bluetooth(4)),
    ("parallel-init(2)", lambda: arrays.parallel_init(2)),
    ("parallel-init(3)", lambda: arrays.parallel_init(3)),
    ("pointer-handoff", lambda: arrays.pointer_handoff()),
    ("dekker", lambda: mutex.dekker()),
    ("readers-writer(2)", lambda: mutex.readers_writer(2)),
    ("readers-writer(3)", lambda: mutex.readers_writer(3)),
    ("double-observer", lambda: mutex.double_observer()),
]
_SVCOMP_INCORRECT: list[tuple[str, Factory]] = [
    ("mutex-atomic(2)-bug", lambda: svcomp.mutex_atomic(2, correct=False)),
    ("mutex-atomic(3)-bug", lambda: svcomp.mutex_atomic(3, correct=False)),
    ("counter-sum(2)-bug", lambda: svcomp.counter_sum(2, correct=False)),
    ("counter-sum(3)-bug", lambda: svcomp.counter_sum(3, correct=False)),
    ("counter-sum(4)-bug", lambda: svcomp.counter_sum(4, correct=False)),
    ("producer-consumer(2)-bug", lambda: svcomp.producer_consumer(2, correct=False)),
    ("producer-consumer(3)-bug", lambda: svcomp.producer_consumer(3, correct=False)),
    ("producer-consumer(4)-bug", lambda: svcomp.producer_consumer(4, correct=False)),
    ("bank-account(2)-bug", lambda: svcomp.bank_account(2, correct=False)),
    ("bank-account(3)-bug", lambda: svcomp.bank_account(3, correct=False)),
    ("peterson-bug", lambda: svcomp.peterson(correct=False)),
    ("ticket-lock(2)-bug", lambda: svcomp.ticket_lock(2, correct=False)),
    ("ticket-lock(3)-bug", lambda: svcomp.ticket_lock(3, correct=False)),
    ("flag-barrier(2)-bug", lambda: svcomp.flag_barrier(2, correct=False)),
    ("flag-barrier(3)-bug", lambda: svcomp.flag_barrier(3, correct=False)),
    ("reorder(1)-bug", lambda: svcomp.reorder(1, correct=False)),
    ("reorder(2)-bug", lambda: svcomp.reorder(2, correct=False)),
    ("reorder(3)-bug", lambda: svcomp.reorder(3, correct=False)),
    ("inc-dec(2)-bug", lambda: svcomp.increment_decrement(2, correct=False)),
    ("inc-dec(3)-bug", lambda: svcomp.increment_decrement(3, correct=False)),
    ("bluetooth(2)-bug", lambda: bluetooth(2, correct=False)),
    ("bluetooth(3)-bug", lambda: bluetooth(3, correct=False)),
    ("parallel-init(3)-bug", lambda: arrays.parallel_init(3, correct=False)),
    ("pointer-handoff-bug", lambda: arrays.pointer_handoff(correct=False)),
    ("shared-buffer(2)-bug", lambda: arrays.shared_buffer(2, correct=False)),
    ("dekker-bug", lambda: mutex.dekker(correct=False)),
    ("readers-writer(2)-bug", lambda: mutex.readers_writer(2, correct=False)),
    ("double-observer-bug", lambda: mutex.double_observer(correct=False)),
]
_WEAVER_CORRECT: list[tuple[str, Factory]] = [
    ("token-ring(3)", lambda: weaver.token_ring(3)),
    ("token-ring(4)", lambda: weaver.token_ring(4)),
    ("token-ring(5)", lambda: weaver.token_ring(5)),
    ("lockstep-counters(2)", lambda: weaver.lockstep_counters(2)),
    ("lockstep-counters(3)", lambda: weaver.lockstep_counters(3)),
    ("phase-protocol(2)", lambda: weaver.phase_protocol(2)),
    ("phase-protocol(3)", lambda: weaver.phase_protocol(3)),
    ("chunked-sum(3)", lambda: weaver.chunked_sum(3)),
    ("chunked-sum(4)", lambda: weaver.chunked_sum(4)),
    ("max-proposals(3)", lambda: weaver.max_of_proposals(3)),
    ("max-proposals(4)", lambda: weaver.max_of_proposals(4)),
    ("handoff-chain(3)", lambda: weaver.handoff_chain(3)),
    ("handoff-chain(4)", lambda: weaver.handoff_chain(4)),
    ("handoff-chain(5)", lambda: weaver.handoff_chain(5)),
    ("balanced-workers(1)", lambda: weaver.balanced_workers(1)),
    ("balanced-workers(2)", lambda: weaver.balanced_workers(2)),
    ("token-ring(6)", lambda: weaver.token_ring(6)),
    ("handoff-chain(6)", lambda: weaver.handoff_chain(6)),
    ("lockstep-counters(4)", lambda: weaver.lockstep_counters(4)),
    ("phase-protocol(4)", lambda: weaver.phase_protocol(4)),
]
_WEAVER_INCORRECT: list[tuple[str, Factory]] = [
    ("token-ring(3)-bug", lambda: weaver.token_ring(3, correct=False)),
]

_ALL: list[Benchmark] = [
    Benchmark(name, suite_name, expected, factory)
    for suite_name, expected, rows in (
        ("svcomp", "correct", _SVCOMP_CORRECT),
        ("svcomp", "incorrect", _SVCOMP_INCORRECT),
        ("weaver", "correct", _WEAVER_CORRECT),
        ("weaver", "incorrect", _WEAVER_INCORRECT),
    )
    for name, factory in rows
]
_BY_NAME: dict[str, Benchmark] = {b.name: b for b in _ALL}
if len(_BY_NAME) != len(_ALL):  # pragma: no cover - sanity
    raise AssertionError("duplicate benchmark names in the registry")


def all_benchmarks() -> list[Benchmark]:
    """The full registry (builds no program)."""
    return _ALL


def suite(name: str) -> list[Benchmark]:
    """Benchmarks of one suite ("svcomp" or "weaver")."""
    entries = [b for b in _ALL if b.suite == name]
    if not entries:
        raise ValueError(f"unknown suite {name!r}")
    return entries


def by_name(name: str) -> Benchmark:
    return _BY_NAME[name]
