"""One pass of one workload, run in a fresh interpreter by ``run.py``.

    python3 perfbench/workloads.py ROLE --seed N --out RESULT.json
        [--store DIR] [--trace SPANS.json.gz]

Roles:

* ``cold``     — the default sequential triaged portfolio per program,
  no proof store (``portfolio-cold``);
* ``populate`` — the same pass in one process, writing into
  ``--store``: the set-up of ``store-warm``;
* ``warm``     — the same pass reading the store ``populate`` wrote,
  opened once from disk by a fresh process (``store-warm``);
* ``service``  — ``repro serve --workers 2`` as a subprocess and two
  closed-loop client threads, one job each at a time
  (``service-closed``).

Every role sends each of the 75 registry programs once, in an order
shuffled by ``--seed``, with no wall-clock budget: the amount of work
is fixed by the round and state caps alone.  ``cold`` and ``warm``
verify each program in a forked copy of the set-up process, so its
time does not depend on the programs verified before it.

The result file holds the per-program records (verdict, latency, work
counters), the timed phase's wall and CPU time, peak memory, and
``ready_at`` — the ``time.monotonic()`` instant of the first timed
request, from which ``run.py`` computes the set-up time.  With
``--trace`` the layers are wrapped (:mod:`spans`) and per-layer totals
are added.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
import traceback

import spans  # the benchmark's own module, beside this file

#: verifier round cap, the repository default; with no time budget it
#: and the per-round state cap are the only bounds on a run's work
MAX_ROUNDS = 60

#: service client threads (closed loop: one outstanding job each)
CLIENTS = 2

SOCKET = "serve.sock"


def _registry():
    from repro.benchmarks import all_benchmarks

    benches = all_benchmarks()
    programs = {b.name: b.build() for b in benches}
    expected = {b.name: b.expected for b in benches}
    return programs, expected


def _shuffled(names, seed: int) -> list[str]:
    order = sorted(names)
    random.Random(seed).shuffle(order)
    return order


def _cpu_self() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _portfolio_pass(programs, expected, order, store, tracer, isolate):
    """Verify every program in *order*; with *isolate*, each in a forked
    copy of this process (see :func:`_in_child`)."""
    from repro.verifier.portfolio import verify_portfolio
    from repro.verifier.refinement import VerifierConfig

    config = VerifierConfig(
        time_budget=None, max_rounds=MAX_ROUNDS, store_path=store
    )

    def one(name: str) -> dict:
        started = time.perf_counter()
        result = verify_portfolio(programs[name], config)
        verdict = result.aggregate().verdict.value
        latency = time.perf_counter() - started
        queries = rounds = states = 0
        for member in result.members:
            rounds += member.rounds
            states += member.states_explored
            if member.query_stats is not None:
                queries += member.query_stats.solver_sat_queries
        return {
            "program": name,
            "expected": expected[name],
            "verdict": verdict,
            "latency_s": latency,
            "queries": queries,
            "rounds": rounds,
            "states": states,
        }

    records = []
    for name in order:
        if tracer is not None:
            tracer.set_program(name)
        if not isolate:
            records.append(one(name))
            continue
        if tracer is not None:
            tracer.open("fork")
        try:
            records.append(_in_child(one, name, tracer))
        finally:
            if tracer is not None:
                tracer.close()
    return records


def _in_child(fn, arg, tracer):
    """``fn(arg)`` in a forked copy of this process; returns its result.

    Every child starts from the same state (imports done, programs
    built, store opened) and nothing it caches flows back, so a
    program's time does not depend on which programs ran before it.
    The result travels back as JSON over a pipe; a traced child sends
    its spans too.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            mark = tracer.child_mark() if tracer is not None else None
            reply = {"value": fn(arg)}
            if tracer is not None:
                reply["trace"] = tracer.child_report(mark)
            with os.fdopen(write_fd, "wb") as out:
                out.write(json.dumps(reply).encode())
            status = 0
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as inp:
        data = inp.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"child for {arg!r} failed (wait status {status})")
    reply = json.loads(data)
    if tracer is not None:
        tracer.adopt(reply["trace"])
    return reply["value"]


# ---------------------------------------------------------------------------
# The service workload
# ---------------------------------------------------------------------------

def _proc_cpu(pid: int) -> float:
    """CPU seconds of *pid* plus its reaped children, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # fields[11:15] are utime, stime, cutime, cstime (stat fields 14-17)
    ticks = sum(int(x) for x in fields[11:15])
    return ticks / os.sysconf("SC_CLK_TCK")


def _descendants(pid: int) -> list[int]:
    found, todo = [], [pid]
    while todo:
        current = todo.pop()
        found.append(current)
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{current}/task/{tid}/children") as f:
                    todo.extend(int(c) for c in f.read().split())
            except OSError:
                continue
    return found


def _tree_cpu(pid: int) -> float:
    """CPU seconds of the process tree under *pid* (live processes and
    every child they reaped)."""
    return sum(_proc_cpu(p) for p in _descendants(pid))


def _service_pass(expected, order, workdir, tracer):
    with open(os.path.join(workdir, "serve.log"), "wb") as log:
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", SOCKET,
             "--journal", "jobs.journal", "--workers", str(CLIENTS),
             "--max-rounds", str(MAX_ROUNDS), "--no-proof-store"],
            cwd=workdir, stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            records, ready_at, wall, cpu = _closed_loop(order, server, tracer)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
    for record in records:
        record["expected"] = expected[record["program"]]
    return records, ready_at, wall, cpu


def _closed_loop(order, server, tracer):
    """The timed phase: two clients, one outstanding job each, until
    every program has its verdict; then drain the server."""
    from repro.service.client import ServiceClient, wait_for_server

    with wait_for_server(SOCKET, timeout=60.0) as admin:
        ready_at = time.monotonic()
        cpu0 = _cpu_self() + _tree_cpu(server.pid)
        started = time.perf_counter()
        records: list[dict] = []
        errors: list[Exception] = []
        pending = list(order)
        lock = threading.Lock()

        def client_loop() -> None:
            if tracer is not None:
                tracer.open(spans.ROOT)
            try:
                with ServiceClient(SOCKET, timeout=120.0) as client:
                    while True:
                        with lock:
                            if not pending:
                                return
                            name = pending.pop(0)
                        if tracer is not None:
                            tracer.set_program(name)
                        records.append(_service_job(client, name, tracer))
            except Exception as exc:  # re-raised by the main thread
                errors.append(exc)
            finally:
                if tracer is not None:
                    tracer.close()

        threads = [threading.Thread(target=client_loop)
                   for _ in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - started
        cpu = _cpu_self() + _tree_cpu(server.pid) - cpu0
        if errors:
            raise errors[0]
        admin.drain()
    server.wait(timeout=60)
    return records, ready_at, wall, cpu


def _service_job(client, name: str, tracer) -> dict:
    started = time.perf_counter()
    if tracer is not None:
        tracer.open("service.submit")
    try:
        job_id = client.submit_one({"bench": name})
    finally:
        if tracer is not None:
            tracer.close()
    submitted = time.perf_counter()
    if tracer is not None:
        tracer.open("service.wait")
    try:
        view = client.wait(job_id)
    finally:
        if tracer is not None:
            tracer.close()
    latency = time.perf_counter() - started
    result = view.get("result") or {}
    stats = result.get("query_stats") or {}
    return {
        "program": name,
        "verdict": result.get("verdict", view.get("state")),
        "latency_s": latency,
        "submit_s": submitted - started,
        "verify_s": float(result.get("time_s", 0.0)),
        "queries": stats.get("solver_sat_queries", 0),
        "rounds": result.get("rounds", 0),
        "states": result.get("states", 0),
    }


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("role", choices=("cold", "populate", "warm",
                                         "service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--store", default=None)
    parser.add_argument("--trace", default=None,
                        help="record spans and write them to this file")
    args = parser.parse_args(argv)

    tracer = before = None
    if args.trace:
        import repro.benchmarks  # noqa: F401  (wrappers need the modules)
        import repro.verifier.portfolio  # noqa: F401

        tracer = spans.Tracer()
        spans.install(tracer)

    if args.role == "service":
        from repro.benchmarks import all_benchmarks

        expected = {b.name: b.expected for b in all_benchmarks()}
        order = _shuffled(expected, args.seed)
        if tracer is not None:
            before = tracer.snapshot()
        records, ready_at, wall, cpu = _service_pass(
            expected, order, os.getcwd(), tracer
        )
    else:
        programs, expected = _registry()
        order = _shuffled(programs, args.seed)
        store = args.store if args.role in ("populate", "warm") else None
        isolate = args.role != "populate"
        if args.role == "warm":
            from repro.store import open_store

            open_store(store)  # load once; every child inherits it
        if isolate:
            # children then share these pages instead of copying them
            gc.collect()
            gc.freeze()
        if tracer is not None:
            before = tracer.snapshot()
        ready_at = time.monotonic()
        cpu0 = _cpu_self()
        started = time.perf_counter()
        if tracer is not None:
            tracer.open(spans.ROOT)
        records = _portfolio_pass(
            programs, expected, order, store, tracer, isolate
        )
        if tracer is not None:
            tracer.close()
        wall = time.perf_counter() - started
        cpu = _cpu_self() - cpu0

    out = {
        "ready_at": ready_at,
        "done_at": time.monotonic(),
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": _peak_rss_mb(),
        "records": records,
    }
    if tracer is not None:
        out["trace"] = {
            "before": before,
            "after": tracer.snapshot(),
            "accounting": tracer.accounting(before),
            "spans": tracer.span_count(),
        }
        tracer.write(args.trace)
    with open(args.out, "w") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
