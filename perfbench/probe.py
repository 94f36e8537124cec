"""Cold-start probe: a fresh process that imports graphlim and makes the
first call of each op type of one workload, at the given thread count,
with the op seeds of cycle ``--cycle``, from the op at position ``--start``
on.

Prints one JSON line per op: {"kind", "ok", "digest" | "error"}, then one
line {"peak_rss_mb"}.  It stops after the first op that raises: graphlim's
lazily built tables may then be half written, so the caller runs the
remaining ops in a fresh process.  The caller times the processes, which
gives the benchmark's ``setup_s``.

    python3 perfbench/probe.py --workload uig-metric --seed 1 --threads 2
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, SIZES, build_ops, import_graphlim, op_seed  # noqa: E402


def peak_rss_mb() -> float:
    """Peak resident memory of this process since it started, in MB.

    ``VmHWM`` counts from the exec that started the process; ``ru_maxrss``
    would also count the parent's peak, which Linux carries across fork.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cycle", type=int, default=0, help="cycle whose op seeds to use")
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--size", default="full", choices=sorted(SIZES))
    parser.add_argument("--start", type=int, default=0, help="position of the first op to call")
    args = parser.parse_args()
    import_graphlim(HERE.parent)
    ops = build_ops(args.workload, args.size)
    for pos in range(args.start, len(ops)):
        op = ops[pos]
        try:
            out = op.call(op_seed(args.seed, args.cycle, pos), args.threads)
            line = {"kind": op.kind, "ok": out.exact_ok is not False, "digest": out.digest}
        except Exception as exc:  # a crash is a failed op, reported to the caller
            line = {"kind": op.kind, "ok": False, "error": f"{type(exc).__name__}: {exc}"}
        print(json.dumps(line), flush=True)
        if "error" in line:
            break
    print(json.dumps({"peak_rss_mb": peak_rss_mb()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
