"""Workload definitions: the ops each workload cycles through.

An op is one call into an ``experiments`` driver or ``cli.main`` that yields
one verdict.  Every op receives its own seed and a thread count and returns
an :class:`Outcome`: a digest of its full output (report JSON, heatmap cells
or CLI stdout), whether an exact check passed (``None`` for statistical ops)
and the recorded statistical verdict.  ``draws`` counts the seed objects the
op's parameters ask for: permutations, matchings, Dyck words and
excursions at the stated n (exhaustive scans and component-size draws count
0).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Outcome:
    digest: str
    exact_ok: bool | None  # None: not an exact op
    stat_pass: bool | None  # recorded, never a failure


@dataclass(frozen=True)
class Op:
    kind: str
    draws: int
    call: Callable[[int, int], Outcome]


class OpFailed(Exception):
    """Raised when an op ends in a way that counts as a failure, such as the CLI exiting 2."""


def import_graphlim(root: Path):
    """Import graphlim from ``root/src`` and refuse any other installed copy."""
    src = root / "src"
    sys.path.insert(0, str(src))
    try:
        graphlim = importlib.import_module("graphlim")
    except ImportError as exc:
        raise SystemExit(f"error: cannot import graphlim from {src}: {exc}")
    where = Path(graphlim.__file__).resolve().parent
    if where != (src / "graphlim").resolve():
        raise SystemExit(f"error: graphlim imported from {where}, not from {src}")
    return graphlim


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report(report, exact: bool = False) -> Outcome:
    passed = bool(report.passed)
    return Outcome(_sha(report.to_json().encode()), passed if exact else None, None if exact else passed)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# Sizes per op; "tiny" keeps every op type but at toy sizes, for the self-test.
SIZES = {
    "full": {
        "indec_reps": 1,
        "clique_reps": 4,
        "heat_reps": 20,
        "exact_nmax": 5,
        "gp_n": (1000, 4000, 16000),
        "gp_two_point_n": 10_000,
        "gp_m": 2048,
        "gp_seeds": 1,
        "gp_draws": 10,
        "ucs_n": 10_000,
        "ucs_m": 32_768,
        "ucs_reps": 10,
        "lcs_reps": 200,
        "vdf_n": 200,
        "vdf_reps": 40,
        "xyz_n": 2000,
        "xyz_reps": 2000,
        "m_n": 1000,
        "heat_n": 200,
        "lcs_small": 500,
        "lcs_large": 2000,
    },
    "tiny": {
        "indec_reps": 2,
        "clique_reps": 2,
        "heat_reps": 2,
        "exact_nmax": 3,
        "gp_n": (50, 100),
        "gp_two_point_n": 100,
        "gp_m": 64,
        "gp_seeds": 1,
        "gp_draws": 10,
        "ucs_n": 100,
        "ucs_m": 128,
        "ucs_reps": 10,
        "lcs_reps": 10,
        "vdf_n": 10,
        "vdf_reps": 2,
        "xyz_n": 20,
        "xyz_reps": 20,
        "m_n": 30,
        "heat_n": 20,
        "lcs_small": 30,
        "lcs_large": 700,
    },
}


def _matchings_ops(s: dict) -> list[Op]:
    from graphlim import cli, experiments

    n = s["m_n"]

    def indec(seed: int, threads: int) -> Outcome:
        return _report(experiments.mc_indecomposable_rate(n, s["indec_reps"], _rng(seed), threads=threads))

    def clique(family: str):
        def call(seed: int, threads: int) -> Outcome:
            return _report(
                experiments.mc_clique_density(family, n, 3, s["clique_reps"], _rng(seed), threads=threads)
            )

        return call

    def heatmap(seed: int, threads: int) -> Outcome:
        step = experiments.heatmap_experiment("circle", s["heat_n"], s["heat_reps"], _rng(seed), threads=threads)
        return Outcome(_sha(step.cells.tobytes()), None, None)

    def cli_exact(seed: int, threads: int) -> Outcome:
        argv = ["verify", "exact", "--nmax", str(s["exact_nmax"]), "--seed", str(seed), "--threads", str(threads)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code == 2:
            raise OpFailed("graphlim verify exact exited 2")
        checks = {e["label"]: e["value"] == 1.0 for e in json.loads(out.getvalue())["estimates"]}
        # the suite's size-3 sample-law record is a chi-square test at p > 1e-3,
        # so it fails on about 1 seed in 500: a statistical verdict, not an exact one
        stat = checks.pop("sample_law_identities", None)
        return Outcome(_sha(out.getvalue().encode()), all(checks.values()), stat)

    return [
        Op("mc_indecomposable_rate", s["indec_reps"], indec),
        Op("mc_clique_density.perm", s["clique_reps"], clique("perm")),
        Op("mc_clique_density.circle", s["clique_reps"], clique("circle")),
        Op("heatmap_experiment", s["heat_reps"], heatmap),
        Op("cli.verify_exact", 0, cli_exact),
    ]


def _uig_ops(s: dict) -> list[Op]:
    from graphlim import experiments

    def gp(seed: int, threads: int) -> Outcome:
        return _report(
            experiments.verify_gp(
                s["gp_n"], 0.05, s["gp_m"], s["gp_seeds"], s["gp_draws"], _rng(seed),
                threads=threads, two_point_n=s["gp_two_point_n"],
            )
        )

    def ucs(seed: int, threads: int) -> Outcome:
        return _report(
            experiments.mc_unit_clique_scaling(s["ucs_n"], 3, s["ucs_reps"], s["ucs_m"], _rng(seed), threads=threads)
        )

    def lcs(n: int):
        def call(seed: int, threads: int) -> Outcome:
            return _report(experiments.largest_component_stats(n, s["lcs_reps"], _rng(seed), threads=threads))

        return call

    def vdf(seed: int, threads: int) -> Outcome:
        # serial by design: the driver takes no thread count
        return _report(experiments.verify_distance_formula(s["vdf_n"], s["vdf_reps"], _rng(seed)), exact=True)

    gp_draws = 2 * s["gp_draws"] + s["gp_seeds"] * len(s["gp_n"])
    return [
        Op("verify_gp", gp_draws, gp),
        Op("mc_unit_clique_scaling", 2 * s["ucs_reps"], ucs),
        Op(f"largest_component_stats.n{s['lcs_small']}", 0, lcs(s["lcs_small"])),
        Op(f"largest_component_stats.n{s['lcs_large']}", 0, lcs(s["lcs_large"])),
        Op("verify_distance_formula", s["vdf_reps"], vdf),
    ]


def _xyz_ops(s: dict) -> list[Op]:
    from graphlim import experiments

    def xyz(seed: int, threads: int) -> Outcome:
        return _report(experiments.mc_poisson_xyz(s["xyz_n"], s["xyz_reps"], 3, _rng(seed), threads=threads))

    return [Op("mc_poisson_xyz", s["xyz_reps"], xyz)]


WORKLOADS: dict[str, Callable[[dict], list[Op]]] = {
    "matchings-n1000": _matchings_ops,
    "uig-metric": _uig_ops,
    "xyz-batch": _xyz_ops,
}

# Seconds one cycle takes at full size on the reference host (2 cores of a
# shared x86-64 machine); a --trace 0 run makes round(--seconds / this) cycles.
CYCLE_SECONDS = {"matchings-n1000": 0.76, "uig-metric": 1.56, "xyz-batch": 0.37}

# Cycles run untraced and then traced in a --trace 1 run: the same ops, so
# span counts repeat exactly for a given seed.
TRACE_CYCLES = {"matchings-n1000": 40, "uig-metric": 6, "xyz-batch": 16}


def build_ops(workload: str, size: str = "full") -> list[Op]:
    return WORKLOADS[workload](SIZES[size])


def op_seed(run_seed: int, cycle: int, position: int) -> int:
    """Seed of the op at `position` in `cycle`, derived from the run seed."""
    return int(np.random.SeedSequence([run_seed, cycle, position]).generate_state(1, np.uint64)[0])
