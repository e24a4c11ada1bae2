"""The repository benchmark: time to a verdict over the 75-program registry.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (all closed loops; see
``perfbench/README.md`` for why each was chosen):

* ``portfolio-cold`` — ``verify_portfolio`` per program, no proof store;
* ``store-warm``     — a cold pass into an empty proof store (set-up),
  then every program re-verified against it from a fresh process;
* ``service-closed`` — ``repro serve --workers 2`` with two client
  connections, each waiting for its verdict before the next job.

A run makes ``round(S / PASS_SECONDS)`` passes of its workload (at
least one), each in fresh processes and each sending all 75 programs
once in an order shuffled by the seed; the end-to-end metrics are
medians over the passes.  No wall-clock budget decides how much
work is done.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes one
untraced and one traced pass and prints the per-layer metrics (call
counts and self times of each layer, work counters, tracing overhead).
The last line of standard output is the JSON result; a ``machine:``
line before it records the host.  Raw results, spans and the work
fingerprints are kept under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import spans  # the benchmark's own module, beside this file

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = os.path.join(HERE, "workloads.py")
WORKLOAD_NAMES = ("portfolio-cold", "store-warm", "service-closed")

#: nominal seconds of one pass on a 2-core host; a run makes
#: ``round(--seconds / PASS_SECONDS)`` passes (at least one), so its
#: work depends on its arguments only, never on the host's speed
PASS_SECONDS = 10

#: a run that is not done this many seconds after it started kills its
#: pass and fails
RUN_LIMIT = 170

#: the layers the traced run wraps (see spans.install)
LAYERS = (
    "lang.build", "fork", "portfolio", "triage.plan", "verify", "check",
    "hoare.step", "comm", "solver.is_sat", "solver.fourier", "interp",
    "store.open", "store.get", "store.items", "store.put", "store.flush",
)
SERVICE_LAYERS = ("service.submit", "service.wait")
#: layers that work during set-up, reported over the whole process
SETUP_LAYERS = ("lang.build", "store.open")

DEFINITE = ("correct", "incorrect")


class BenchError(RuntimeError):
    """A pass could not run (not a wrong verdict)."""


# ---------------------------------------------------------------------------
# Passes (each in its own interpreter)
# ---------------------------------------------------------------------------

class Passes:
    """Spawns workload passes in fresh interpreters under a scratch dir."""

    def __init__(self, root: str, seed: int) -> None:
        self.seed = seed
        scratch = os.path.join(root, ".perfbench", "tmp")
        os.makedirs(scratch, exist_ok=True)
        self.tmp = tempfile.mkdtemp(dir=scratch)
        self.env = {
            k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
        }
        self.env.update({
            "PYTHONPATH": os.path.join(root, "src"),
            "PYTHONHASHSEED": "0",
            "TMPDIR": self.tmp,
        })
        self._count = 0
        self.deadline = time.monotonic() + RUN_LIMIT

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def workdir(self) -> str:
        self._count += 1
        path = os.path.join(self.tmp, f"p{self._count}")
        os.makedirs(path)
        return path

    def run(self, role: str, index: int, *, store: str | None = None,
            trace: str | None = None) -> dict:
        """Pass *index* of the run (its program order is shuffled by
        ``seed * 1000 + index``); returns the child's result plus
        ``spawned_at``."""
        cwd = self.workdir()
        out = os.path.join(cwd, "result.json")
        order_seed = self.seed * 1000 + index
        cmd = [sys.executable, WORKLOADS, role, "--seed", str(order_seed),
               "--out", out]
        if store is not None:
            cmd += ["--store", store]
        if trace is not None:
            cmd += ["--trace", trace]
        log_path = os.path.join(cwd, "pass.log")
        with open(log_path, "wb") as log:
            spawned_at = time.monotonic()
            child = subprocess.Popen(
                cmd, cwd=cwd, env=self.env, stdout=log,
                stderr=subprocess.STDOUT, start_new_session=True,
            )
            try:
                code = child.wait(timeout=self.deadline - time.monotonic())
            except subprocess.TimeoutExpired:
                code = "killed: run time limit reached"
            finally:
                # the pass's whole process group: the service pass's
                # server and its workers included
                try:
                    os.killpg(child.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                child.wait()
        if code != 0:
            with open(log_path, "rb") as log:
                tail = log.read()[-4000:].decode(errors="replace")
            raise BenchError(f"{role} pass exited {code}:\n{tail}")
        with open(out) as f:
            result = json.load(f)
        result["spawned_at"] = spawned_at
        return result


def _dir_bytes(path: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


# ---------------------------------------------------------------------------
# Workloads: a list of measured passes each
# ---------------------------------------------------------------------------

def _timed(p: dict) -> dict:
    p["setup_s"] = p["ready_at"] - p["spawned_at"]
    return p


def independent(role: str):
    """A workload whose passes need no shared set-up."""
    def runner(passes: Passes, count: int, trace: str | None) -> list:
        measured = [_timed(passes.run(role, i)) for i in range(count)]
        if trace is not None:
            p = _timed(passes.run(role, 0, trace=trace + ".spans.json.gz"))
            p["traced"] = True
            measured.append(p)
        return measured

    return runner


def store_warm(passes: Passes, count: int, trace: str | None) -> list:
    """One populating cold pass into an empty store, then *count* warm
    passes, each on its own copy of that store (warm passes write too,
    so a shared copy would change later passes' work)."""
    base = os.path.join(passes.workdir(), "store")
    populate = passes.run("populate", 0, store=base)
    populate_s = populate["done_at"] - populate["spawned_at"]
    populate["store_bytes"] = _dir_bytes(base)

    def warm(i: int, setup_pass: dict, trace_path: str | None) -> dict:
        store = os.path.join(passes.workdir(), "store")
        shutil.copytree(base, store)
        p = _timed(passes.run("warm", i, store=store, trace=trace_path))
        p["setup_s"] += populate_s
        p["store_bytes"] = _dir_bytes(store)
        p["setup_pass"] = setup_pass
        return p

    measured = [warm(i, populate, None) for i in range(count)]
    if trace is not None:
        # the set-up pass traced on its own store; the traced warm pass
        # reads the untraced store, so both warm passes see equal bytes
        traced_base = os.path.join(passes.workdir(), "store")
        traced_populate = passes.run(
            "populate", 0, store=traced_base,
            trace=trace + ".setup.spans.json.gz",
        )
        traced_populate["store_bytes"] = _dir_bytes(traced_base)
        traced_populate["untraced"] = populate
        p = warm(0, traced_populate, trace + ".spans.json.gz")
        p["traced"] = True
        measured.append(p)
    return measured


RUNNERS = {
    "portfolio-cold": independent("cold"),
    "store-warm": store_warm,
    "service-closed": independent("service"),
}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(measured: list) -> dict:
    """The seven user-visible metrics of a run: medians over its passes.

    A program's latency is the median of its passes' latencies, so one
    pass hit by a host hiccup does not move it; the percentiles are
    taken over the 75 programs.
    """
    def median(key):
        return statistics.median(p[key] for p in measured)

    records = [r for p in measured for r in p["records"]]
    per_program: dict = {}
    for r in records:
        per_program.setdefault(r["program"], []).append(r["latency_s"])
    latencies_ms = [statistics.median(v) * 1000.0
                    for v in per_program.values()]
    decided = sum(1 for r in records if r["verdict"] in DEFINITE)
    return {
        "setup_s": (median("setup_s"), "s"),
        "wall_s": (median("wall_s"), "s"),
        "cpu_s": (median("cpu_s"), "s"),
        "latency_p50_ms": (percentile(latencies_ms, 50), "ms"),
        "latency_p85_ms": (percentile(latencies_ms, 85), "ms"),
        "peak_rss_mb": (median("peak_rss_mb"), "MB"),
        "decided_share": (decided / len(records), "ratio"),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(p: dict, untraced: dict, prefix: str = "") -> dict:
    """Layer totals of one traced pass: the timed phase, except the
    :data:`SETUP_LAYERS`, which work during set-up and are counted over
    the whole process."""
    tr = p["trace"]
    before, after = tr["before"], tr["after"]

    def delta(kind: str, key: str) -> float:
        return after[kind].get(key, 0) - before[kind].get(key, 0)

    out: dict = {}
    # the store-warm set-up pass runs in one process: no fork, no service
    layers = (LAYERS + SERVICE_LAYERS if not prefix
              else tuple(x for x in LAYERS if x != "fork"))
    for layer in layers:
        if layer in SETUP_LAYERS:
            calls = after["calls"].get(layer, 0)
            self_s = after["self_s"].get(layer, 0.0)
        else:
            calls = delta("calls", layer)
            self_s = delta("self_s", layer)
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.self_s"] = (self_s, "s")
    def counts(key: str) -> float:
        return delta("counts", key)

    out["verify.rounds"] = (counts("verify.rounds"), "count")
    out["check.states"] = (counts("check.states"), "count")
    out["comm.hit_ratio"] = (
        _ratio(counts("comm.answered"), counts("comm.queries")), "ratio")
    out["solver.decisions"] = (counts("solver.decisions"), "count")
    out["solver.cache_hit_ratio"] = (
        _ratio(counts("solver.cache_hits"), delta("calls", "solver.is_sat")),
        "ratio")
    out["store.hit_ratio"] = (
        _ratio(counts("store.hits"), counts("store.lookups")), "ratio")
    out["store.bytes"] = (p.get("store_bytes", 0), "bytes")
    acc = tr["accounting"]
    out["trace.traced_s"] = (acc["traced_s"], "s")
    out["trace.outside_s"] = (delta("self_s", spans.ROOT), "s")
    out["trace.gap_s"] = (acc["gap_s"], "s")
    out["trace.spans"] = (tr["spans"], "count")
    out["trace.overhead_s"] = (p["wall_s"] - untraced["wall_s"], "s")
    records = p["records"]
    for field in ("queries", "rounds", "states"):
        out[f"work.{field}"] = (sum(r[field] for r in records), "count")
    return {prefix + k: v for k, v in out.items()}


def service_layer(p: dict) -> dict:
    """Client-side view of the service: where a job's latency went."""
    records = p["records"]
    if not records or "submit_s" not in records[0]:
        zero = (0.0, "ms")
        return {k: zero for k in (
            "service.submit_ms_p50", "service.verify_ms_p50",
            "service.overhead_ms_p50", "service.overhead_ms_p85")}
    overhead = [(r["latency_s"] - r["verify_s"]) * 1000 for r in records]
    return {
        "service.submit_ms_p50": (
            percentile([r["submit_s"] * 1000 for r in records], 50), "ms"),
        "service.verify_ms_p50": (
            percentile([r["verify_s"] * 1000 for r in records], 50), "ms"),
        "service.overhead_ms_p50": (percentile(overhead, 50), "ms"),
        "service.overhead_ms_p85": (percentile(overhead, 85), "ms"),
    }


# ---------------------------------------------------------------------------
# Correctness, fingerprint, machine
# ---------------------------------------------------------------------------

def verdict_failures(records: list) -> tuple[list, list]:
    """(wrong definite verdicts, undecided programs)."""
    wrong = [r["program"] for r in records
             if r["verdict"] in DEFINITE and r["verdict"] != r["expected"]]
    undecided = [r["program"] for r in records
                 if r["verdict"] not in DEFINITE]
    return wrong, undecided


def fingerprint(p: dict) -> dict:
    """The work a pass did: solver queries, refinement rounds and states
    explored, per program.  In the store-warm set-up pass a fact shared
    by several programs is computed by whichever comes first, so there
    only rounds and states are per program and queries are summed."""
    out = {"timed": {
        r["program"]: [r["queries"], r["rounds"], r["states"]]
        for r in p["records"]
    }}
    if "setup_pass" in p:
        records = p["setup_pass"]["records"]
        out["setup"] = {r["program"]: [r["rounds"], r["states"]]
                        for r in records}
        out["setup_queries"] = sum(r["queries"] for r in records)
    return out


def work_totals(fp: dict) -> dict:
    """(queries, rounds, states) summed per pass kind."""
    timed = fp["timed"].values()
    totals = {"timed": [sum(v[i] for v in timed) for i in range(3)]}
    if "setup" in fp:
        setup = fp["setup"].values()
        totals["setup"] = [fp["setup_queries"]] + [
            sum(v[i] for v in setup) for i in range(2)
        ]
    return totals


def source_digest(root: str) -> str:
    """Content hash of ``src/`` — identifies the code under test."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def machine(root: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
        "loadavg_before": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("run.py: no src/repro under the current directory; run it "
              "from the root of a checkout", file=sys.stderr)
        return 2

    host = machine(root)
    count = 1 if args.trace else max(1, round(args.seconds / PASS_SECONDS))
    results_dir = os.path.join(root, ".perfbench", "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(
        results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}"
    )

    passes = Passes(root, args.seed)
    try:
        measured = RUNNERS[args.workload](
            passes, count, stem if args.trace else None
        )
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        passes.close()
    host["loadavg_after"] = list(os.getloadavg())

    # correctness: every verdict of every pass, set-up passes included
    problems = []
    attempted = failed = 0
    setup_passes = {id(p["setup_pass"]): p["setup_pass"]
                    for p in measured if "setup_pass" in p}
    for p in measured + list(setup_passes.values()):
        records = p["records"]
        wrong, undecided = verdict_failures(records)
        attempted += len(records)
        failed += len(wrong) + len(undecided)
        problems += [f"wrong verdict: {name}" for name in wrong]

    # the work fingerprint must repeat exactly: across the passes of this
    # run and across runs of the same source tree
    prints = [fingerprint(p) for p in measured]
    if any(fp != prints[0] for fp in prints[1:]):
        problems.append("nondeterminism: work fingerprint differs between "
                        "passes of one run")
    fp_dir = os.path.join(root, ".perfbench", "fingerprints")
    os.makedirs(fp_dir, exist_ok=True)
    fp_path = os.path.join(
        fp_dir, f"{args.workload}-{host['source_sha256'][:16]}.json"
    )
    if os.path.exists(fp_path):
        with open(fp_path) as f:
            if json.load(f) != prints[0]:
                problems.append("nondeterminism: work fingerprint differs "
                                f"from an earlier run ({fp_path})")
    else:
        with open(fp_path, "w") as f:
            json.dump(prints[0], f, sort_keys=True)

    if args.trace:
        untraced = next(p for p in measured if not p.get("traced"))
        traced = next(p for p in measured if p.get("traced"))
        metrics = per_layer(traced, untraced)
        metrics.update(service_layer(traced))
        if "setup_pass" in traced:
            setup = traced["setup_pass"]
            metrics.update(per_layer(setup, setup["untraced"],
                                     prefix="setup."))
        else:
            metrics.update({
                k: (0, unit) for k, (_, unit) in per_layer(
                    traced, untraced, prefix="setup.").items()
            })
        for p, label in ((traced, ""), (traced.get("setup_pass"), "setup ")):
            if p is None:
                continue
            acc = p["trace"]["accounting"]
            if abs(acc["gap_s"]) > 1e-6 * max(1.0, acc["traced_s"]):
                problems.append(f"{label}trace accounting gap "
                                f"{acc['gap_s']:.6f}s")
    else:
        metrics = end_to_end(measured)

    correct = not problems
    for problem in problems:
        print(f"run.py: {problem}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(measured),
        "machine": host,
        "problems": problems,
        "work_totals": work_totals(prints[0]),
        "setup_pass": measured[0].get("setup_pass"),
        "per_pass": [
            {k: v for k, v in p.items() if k != "setup_pass"}
            for p in measured
        ],
        "result": result,
    }
    with open(stem + ".json", "w") as f:
        json.dump(record, f)
    print("machine: " + json.dumps(host, sort_keys=True))
    print("work (queries, rounds, states): "
          + json.dumps(record["work_totals"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
