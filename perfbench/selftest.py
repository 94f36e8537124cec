"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Checks, for every workload, that an untraced and a traced run print every
metric named in BENCHMARK.json with its unit; that per-layer self times sum
to no more than traced wall x threads; that spans in pool workers are
attributed to the driver's ``_map_reps`` span, including calls made through
names that ``mmspace`` imported from ``graphs``; and that the benchmark
refuses to run, without printing a result, where ``src/`` is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, import_graphlim  # noqa: E402

# layers each workload must reach, and layers it must not touch
REACHES = {
    "matchings-n1000": ["combinat.is_indecomposable", "combinat.sample_matching", "combinat.xyz_stats",
                        "combinat.sample_permutation", "graphs.clique_count_circle",
                        "graphs.clique_count_inversion", "graphs.circle_graph", "graphs.canonical_form",
                        "graphs.is_split_prime", "graphon.step_graphon", "graphon.clique_density", "cli.main"],
    "uig-metric": ["combinat.sample_irreducible_dyck", "combinat.sample_dyck", "graphs.jump_walk",
                   "graphs.all_pairs_distances", "mmspace.gp_box_estimate_unit", "mmspace.sample_excursion",
                   "mmspace.excursion_distance", "mmspace.excursion_integral", "experiments.uig_blocks"],
    "xyz-batch": ["experiments.matchings_batch", "experiments.xyz_batch", "experiments.mc_poisson_xyz"],
}
AVOIDS = {
    "matchings-n1000": ["combinat.sample_dyck", "mmspace.sample_excursion", "experiments.uig_blocks"],
    "uig-metric": ["combinat.sample_matching", "combinat.is_indecomposable", "experiments.matchings_batch"],
    "xyz-batch": ["combinat.sample_matching", "combinat.is_indecomposable"],
}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result, details = json.loads(lines[-1]), json.loads(lines[-2])["details"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["attempted"] >= 1, result
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, set(got) ^ set(expected)
    printed = dict(line.rsplit(" ", 2)[::2] for line in lines[:-2])
    assert printed == expected, set(printed.items()) ^ set(expected.items())
    if not trace:
        return
    values = {name: m["value"] for name, m in result["metrics"].items()}
    self_sum = sum(v for name, v in values.items() if name.endswith(".self_s"))
    limit = values["trace.wall_s"] * details["threads"]
    assert self_sum <= limit * 1.001, (workload, self_sum, limit)
    for layer in REACHES[workload]:
        assert values[f"{layer}.calls"] > 0, (workload, layer)
    for layer in AVOIDS[workload]:
        assert values[f"{layer}.calls"] == 0, (workload, layer)


def check_attribution() -> None:
    import numpy as np
    from graphlim import experiments

    tracer = Tracer()
    with tracer.installed():
        experiments.mc_clique_density("perm", 20, 2, 6, np.random.default_rng(1), threads=2)
        w = experiments.combinat.sample_irreducible_dyck(40, np.random.default_rng(2))
        experiments.mmspace.gp_box_estimate_unit(w, True, 0.1, 16, np.random.default_rng(3))
    pools = {sid for sid, s in tracer.spans.items() if s.name == "experiments.map_reps"}
    draws = tracer.of("combinat.sample_permutation")
    assert len(draws) == 6 and all(s.parent in pools for s in draws), draws
    boxes = {sid for sid, s in tracer.spans.items() if s.name == "mmspace.gp_box_estimate_unit"}
    walks = tracer.of("graphs.jump_walk")
    assert walks and all(s.parent in boxes for s in walks), len(walks)
    assert experiments._map_reps.__name__ == "_map_reps", "tracer left a wrapper installed"


def check_refuses_without_src() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_selftest_") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "xyz-batch", 0)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_graphlim(ROOT)
    check_attribution()
    print("ok: worker and imported-name spans attributed")
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(spec, workload, trace)
            print(f"ok: {workload} --trace {trace}")
    check_refuses_without_src()
    print("ok: refuses to run without src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
