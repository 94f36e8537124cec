"""graphlim benchmark: closed-loop verdict latency, draw throughput, set-up
time, memory and per-op correctness for one workload.

    python3 perfbench/run.py --workload matchings-n1000 --seed 1 --seconds 20 --trace 0

One client sends ops one at a time (a closed loop); each op is one call into
an ``experiments`` driver or ``cli.main`` at ``threads = nproc``.  A run:

1. cold probes (``--trace 0`` only): three cold set-ups, each of which
   imports graphlim in a fresh process and makes the first call of each op
   type (an op that raises ends its process, and the next op starts a fresh
   one); their median wall time is ``setup_s`` and their median peak RSS is
   ``peak_rss_mb``;
2. references: the first cycles (one per cold set-up) at ``threads = 1`` in
   this process, which also warm this process's caches;
3. the timed body: a fixed number of whole cycles of ops, as many as take
   about ``--seconds`` on the reference host, so that the number of
   attempted ops depends on the arguments alone.

An op fails if it raises, if the CLI exits 2, if an exact op does not pass,
or if its output differs from the ``threads = 1`` reference of the same op
and seed (checked for every probe op and for the first cycles of the body).
Statistical verdicts at the reduced sizes are recorded, never failures.

With ``--trace 1`` the run makes no probes; it runs a fixed number of cycles
untraced and then the same cycles traced (see ``spans.py``), and reports
per-layer calls and self time and the tracing overhead.  The last line of
stdout is the result JSON; the line before it holds provenance and details.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import LAYERS, Tracer  # noqa: E402
from workloads import CYCLE_SECONDS, SIZES, TRACE_CYCLES, WORKLOADS, Op, Outcome, build_ops, import_graphlim, op_seed  # noqa: E402

PROBES = 3
PROBE_TIMEOUT_S = 45
TAIL_BEYOND = 10


@dataclass
class OpRecord:
    phase: str  # probe | reference | body
    kind: str
    seconds: float
    draws: int
    failure: str | None = None
    stat_pass: bool | None = None


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def call_op(op: Op, seed: int, threads: int) -> tuple[float, Outcome | None, str | None]:
    t0 = time.perf_counter()
    try:
        out = op.call(seed, threads)
        err = None
    except Exception as exc:  # a crash is a failed op; the run goes on
        out, err = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, err


def check(out: Outcome | None, err: str | None, ref: Outcome | None) -> str | None:
    if err is not None:
        return err
    if out.exact_ok is False:
        return "exact check did not pass"
    if ref is not None and out.digest != ref.digest:
        return "output differs from the threads=1 reference"
    return None


def references(ops: list[Op], seed: int, cycles: int) -> tuple[list[list[Outcome | None]], list[OpRecord]]:
    """The first `cycles` cycles at threads = 1: refs[cycle][position]."""
    refs, records = [], []
    for cycle in range(cycles):
        refs.append([])
        for pos, op in enumerate(ops):
            dt, out, err = call_op(op, op_seed(seed, cycle, pos), 1)
            refs[cycle].append(out)
            records.append(OpRecord("reference", op.kind, dt, op.draws, check(out, err, None)))
    return refs, records


def cold_probes(workload: str, seed: int, threads: int, size: str, ops: list[Op], refs):
    """Wall seconds and peak RSS of each cold set-up, and one record per set-up.

    Cold set-up k calls each op once with the op seeds of cycle k, so that
    the median over set-ups is not swayed by one costly draw.  It runs in
    fresh processes: a probe process stops after an op that raises, and the
    next process goes on from the op after it, so an op never runs on tables
    a failed op left half written.  Its wall time is the sum of its
    processes' and its peak RSS their largest.  A set-up is one attempted
    op, failed if any of its ops failed: which of them fail after a table
    race varies from run to run, whether one does not.
    """
    walls, rss, records = [], [], []
    for cycle in range(PROBES):
        wall, peak, pos, failures = 0.0, 0.0, 0, []
        while pos < len(ops):
            cmd = [sys.executable, str(HERE / "probe.py"), "--workload", workload, "--seed", str(seed),
                   "--cycle", str(cycle), "--threads", str(threads), "--size", size, "--start", str(pos)]
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
                lines, note = proc.stdout.splitlines(), f"probe exited {proc.returncode}"
            except subprocess.TimeoutExpired:
                lines, note = [], "probe timed out"
            wall += time.perf_counter() - t0
            results = [json.loads(line) for line in lines if line.startswith("{")]
            if results and "peak_rss_mb" in results[-1]:
                peak = max(peak, results.pop()["peak_rss_mb"])
            for res in results:
                failure = res.get("error") or (None if res["ok"] else "exact check did not pass")
                ref = refs[cycle][pos]
                if failure is None and ref is not None and res["digest"] != ref.digest:
                    failure = "cold output differs from the threads=1 reference"
                if failure:
                    failures.append(f"{ops[pos].kind}: {failure}")
                pos += 1
            if not results or "error" not in results[-1]:
                if pos < len(ops):  # the process ended early without a reported error
                    failures.append(f"{ops[pos].kind} and after: {note}")
                break
        walls.append(wall)
        if peak:
            rss.append(peak)
        records.append(OpRecord("probe", "cold_setup", wall, 0, "; ".join(failures) or None))
    return walls, rss, records


def body(ops: list[Op], seed: int, threads: int, refs, cycles: int):
    """`cycles` whole cycles of the workload's ops."""
    records = []
    start = time.perf_counter()
    for cycle in range(cycles):
        for pos, op in enumerate(ops):
            dt, out, err = call_op(op, op_seed(seed, cycle, pos), threads)
            failure = check(out, err, refs[cycle][pos] if cycle < len(refs) else None)
            records.append(OpRecord("body", op.kind, dt, op.draws, failure, out.stat_pass if out else None))
    return records, time.perf_counter() - start


def body_cycles(workload: str, size: str, seconds: float) -> int:
    """Whole cycles that take about `seconds` on the reference host.

    A count fixed by the arguments, not by the clock, keeps the number of
    attempted ops the same from run to run.
    """
    if size != "full":
        return 1
    return max(1, round(seconds / CYCLE_SECONDS[workload]))


def machine_loop_s() -> float:
    """Seconds for a fixed pure-Python loop that touches no graphlim code.

    Read before and after a run, it shows how fast the machine itself was,
    so drift on a shared host can be told apart from a change to the code.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - t0


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops beyond it."""
    ordered = sorted(times)
    idx = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype, fn.argtypes = ctypes.c_int, []
                info["threads"] = fn()
                break
    return info


def git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(graphlim) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "graphlim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "graphlim_path": str(Path(graphlim.__file__).resolve().parent.relative_to(ROOT)),
    }


def draws_per_s(records: list[OpRecord], wall: float) -> float:
    return sum(r.draws for r in records) / wall


def layer_metrics(tracer: Tracer, cold: Tracer, untraced_rate: float, traced_rate: float, wall: float) -> dict:
    from graphlim import combinat

    totals = tracer.layer_totals()
    metrics = {}
    for name in LAYERS:
        entry = totals.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (entry["calls"], "count")
        metrics[f"{name}.self_s"] = (entry["self_s"], "s")
    checked = tracer.of("combinat.is_indecomposable")
    searched = sum(1 for s in checked if s.arg.size > 3 and not any(combinat.xyz_stats(s.arg)))
    metrics["combinat.is_indecomposable.search_ratio"] = (searched / len(checked) if checked else 0.0, "ratio")
    pools = tracer.of("experiments.map_reps")
    busy = sum((s.end - s.start) * s.threads for s in pools)
    metrics["experiments.map_reps.cpu_util"] = (sum(s.cpu for s in pools) / busy if busy else 0.0, "ratio")
    cold_blocks = cold.layer_totals().get("experiments.uig_blocks", {"self_s": 0.0})
    metrics["experiments.uig_blocks.cold_self_s"] = (cold_blocks["self_s"], "s")
    metrics["trace.draws_per_s_untraced"] = (untraced_rate, "1/s")
    metrics["trace.draws_per_s_traced"] = (traced_rate, "1/s")
    metrics["trace.overhead_ratio"] = (traced_rate / untraced_rate if untraced_rate else 0.0, "ratio")
    metrics["trace.wall_s"] = (wall, "s")
    return metrics


def untraced(args, ops: list[Op], threads: int) -> tuple[dict, list[OpRecord], list[OpRecord], dict]:
    refs, records = references(ops, args.seed, PROBES)
    walls, rss, probe_records = cold_probes(args.workload, args.seed, threads, args.size, ops, refs)
    timed, wall = body(ops, args.seed, threads, refs, body_cycles(args.workload, args.size, args.seconds))
    records += probe_records + timed
    times = [r.seconds for r in timed]
    metrics = {
        "verdict_s_p50": (statistics.median(times), "s"),
        "verdict_s_tail": (tail(times)[0], "s"),
        "draws_per_s": (draws_per_s(timed, wall), "1/s"),
        "setup_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "ok_ops_ratio": (1.0 - sum(1 for r in records if r.failure) / len(records), "ratio"),
    }
    return metrics, records, timed, {"walls_s": walls, "peak_rss_mb": rss}


def traced(args, ops: list[Op], threads: int) -> tuple[dict, list[OpRecord], list[OpRecord], dict]:
    """The same cycles untraced, then traced; per-layer metrics from the second pass."""
    cold = Tracer()
    with cold.installed():
        refs, records = references(ops, args.seed, 1)
    cycles = TRACE_CYCLES[args.workload] if args.size == "full" else 1
    plain, plain_wall = body(ops, args.seed, threads, refs, cycles)
    tracer = Tracer()
    with tracer.installed():
        timed, wall = body(ops, args.seed, threads, refs, cycles)
    records += plain + timed
    metrics = layer_metrics(tracer, cold, draws_per_s(plain, plain_wall), draws_per_s(timed, wall), wall)
    return metrics, records, timed, {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", choices=sorted(SIZES), help="tiny: self-test sizes")
    args = parser.parse_args(argv)

    graphlim = import_graphlim(ROOT)
    threads = nproc()
    ops = build_ops(args.workload, args.size)
    loop_before = machine_loop_s()
    metrics, records, timed, setup = (traced if args.trace else untraced)(args, ops, threads)
    loop_after = machine_loop_s()

    failures = [r for r in records if r.failure]
    times = [r.seconds for r in timed]
    tail_s, tail_pct = tail(times)
    kinds: dict[str, list[float]] = {}
    for r in timed:
        kinds.setdefault(r.kind, []).append(r.seconds)
    stat = [r.stat_pass for r in timed if r.stat_pass is not None]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "threads": threads,
        "trace": args.trace,
        "provenance": provenance(graphlim),
        "machine_loop_s": [loop_before, loop_after],
        "ops_timed": len(times),
        "tail": {"percentile": tail_pct, "ops_beyond": min(TAIL_BEYOND, len(times) - 1), "seconds": tail_s},
        "op_seconds_p50": {k: statistics.median(v) for k, v in kinds.items()},
        "cold_setups": setup,
        "process_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "statistical_verdicts_passed": f"{sum(stat)}/{len(stat)}",
        "failed_ops_ratio": len(failures) / len(records),
        "failures": [{"phase": r.phase, "kind": r.kind, "reason": r.failure} for r in failures[:20]],
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({"details": details}, sort_keys=True))
    # `correct` covers the ops run in this process; cold-probe failures,
    # expected from the UIG table race, count in `failed` only
    result = {
        "correct": not any(r.failure for r in records if r.phase != "probe"),
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
