"""Command-line front end: samplers, graph builders, verification suites,
and exporters.

Every command is a pure function of (argv, seed): the seed is taken from
--seed, else the GRAPHLIM_SEED environment variable, else drawn once from
the OS and echoed, so any output can be replayed.  The seed in use is
always printed to stderr and embedded in JSON reports.  Exit codes: 0 on
success (and verification pass), 1 on verification failure, 2 on usage or
validation errors, 3 on an internal error (a fault in graphlim itself).
"""

from __future__ import annotations

import argparse
import os
import secrets
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import combinat, experiments, graphon, graphs, mmspace

__all__ = ["RunConfig", "main"]

_SAMPLE_KINDS = ("perm", "matching", "dyck", "irreducible-dyck", "connected-uig", "uig")
_BUILD_KINDS = ("inversion", "circle", "unit-interval")
_SUITES = (
    "exact",
    "poisson",
    "densities",
    "distance-formula",
    "gp",
    "clique-scaling",
    "components",
)
_EXPORT_KINDS = ("heatmap", "excursion", "distance-matrix")
# the --format values each command can write; without --format it writes its own default
_FORMATS = {"sample": (), "build": ("csv",), "verify": ("json",), "export heatmap": ("pgm", "csv"),
            "export excursion": ("csv",), "export distance-matrix": ("csv",)}


@dataclass(frozen=True)
class RunConfig:
    seed: int
    out_dir: Path
    format: str | None  # json | csv | pgm, or None for the command's default
    threads: int

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


def _parse_int(text: str, source: str, expected: str) -> int:
    """An integer setting, or a usage error that names where it came from."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{source} must be {expected}, got {text!r}") from None


def _resolve_threads(value: str | None) -> int:
    source = "--threads"
    if value is None:
        source, value = "GRAPHLIM_THREADS", os.environ.get("GRAPHLIM_THREADS", "1")
    if value == "auto":
        try:  # the CPUs this process may run on, not all of the host's
            return len(os.sched_getaffinity(0))
        except AttributeError:
            return os.cpu_count() or 1
    threads = _parse_int(value, source, "an integer or 'auto'")
    if threads < 1:
        raise ValueError("threads must be >= 1 or 'auto'")
    return threads


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    command = f"export {args.kind}" if args.command == "export" else args.command
    if args.format is not None and args.format not in _FORMATS[command]:
        can = " or ".join(_FORMATS[command]) or "no --format"
        raise ValueError(f"{command} cannot write --format {args.format}; it takes {can}")
    seed = args.seed
    if seed is None:
        env = os.environ.get("GRAPHLIM_SEED")
        seed = _parse_int(env, "GRAPHLIM_SEED", "an integer") if env is not None else secrets.randbits(63)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    if getattr(args, "count", 1) < 1:
        raise ValueError("count must be >= 1")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = RunConfig(
        seed=seed,
        out_dir=out_dir,
        format=args.format,
        threads=_resolve_threads(args.threads),
    )
    print(f"seed: {config.seed}", file=sys.stderr)
    return config


def _emit_lines(lines, args, config) -> None:
    sink = sys.stdout if args.out is None else open(config.out_dir / args.out, "w")
    try:
        for line in lines:
            sink.write(line + "\n")
    finally:
        if sink is not sys.stdout:
            sink.close()


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def _cmd_sample(args: argparse.Namespace, config: RunConfig) -> int:
    rng = config.rng()
    n, count = args.n, args.count
    lines = []
    for _ in range(count):
        if args.kind == "perm":
            lines.append(combinat.format_permutation(combinat.sample_permutation(n, rng)))
        elif args.kind == "matching":
            lines.append(combinat.format_matching(combinat.sample_matching(n, rng)))
        elif args.kind == "dyck":
            lines.append(combinat.sample_dyck(n, rng).steps)
        elif args.kind == "irreducible-dyck":
            lines.append(combinat.sample_irreducible_dyck(n, rng).steps)
        elif args.kind == "connected-uig":
            lines.append(experiments.sample_connected_unit_interval_graph(n, rng).steps)
        else:  # uig: a graph per line in edge-list format
            lines.append(graphs.format_graph(experiments.sample_unit_interval_graph(n, rng)))
    _emit_lines(lines, args, config)
    return 0


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def _build_one(kind: str, line: str):
    if kind == "inversion":
        return graphs.inversion_graph(combinat.parse_permutation(line))
    if kind == "circle":
        return graphs.circle_graph(combinat.parse_matching(line))
    return graphs.unit_interval_graph(combinat.parse_dyck(line))


def _cmd_build(args: argparse.Namespace, config: RunConfig) -> int:
    if args.input is None:
        raw = sys.stdin.read()
    else:
        raw = Path(args.input).read_text()
    seeds = [line for line in raw.splitlines() if line.strip()]
    if not seeds:
        raise ValueError("no seed objects in input")
    built = [_build_one(args.kind, line) for line in seeds]
    if config.format == "csv":
        if args.out is None:
            raise ValueError("--format csv requires --out")
        stem = Path(args.out)
        for i, g in enumerate(built):
            name = stem if len(built) == 1 else stem.with_name(f"{stem.stem}_{i}{stem.suffix}")
            graphs.write_adjacency_csv(g, config.out_dir / name)
    else:
        _emit_lines([graphs.format_graph(g) for g in built], args, config)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _run_suite(args: argparse.Namespace, config: RunConfig) -> experiments.Report:
    rng = config.rng()
    t = config.threads
    if args.suite == "exact":
        return experiments.exact_enumeration_suite(args.nmax, rng)
    if args.suite == "poisson":
        return experiments.mc_poisson_xyz(args.n, args.reps, args.max_moment, rng, threads=t)
    if args.suite == "densities":
        return experiments.mc_clique_density(
            args.family, args.n, args.k, args.reps, rng, tol=args.tol, threads=t
        )
    if args.suite == "distance-formula":
        return experiments.verify_distance_formula(args.n, args.reps, rng)
    if args.suite == "gp":
        return experiments.verify_gp(
            args.n_values,
            args.delta,
            args.m,
            args.seeds_per_n,
            args.draws,
            rng,
            threads=t,
            two_point_n=args.two_point_n,
        )
    if args.suite == "clique-scaling":
        return experiments.mc_unit_clique_scaling(
            args.n, args.kmax, args.reps, args.m, rng, threads=t
        )
    return experiments.largest_component_stats(
        args.n, args.reps, rng, deficiency_cutoff=args.cutoff, threads=t
    )


def _cmd_verify(args: argparse.Namespace, config: RunConfig) -> int:
    report = _run_suite(args, config)
    _emit_lines([report.to_json()], args, config)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def _cmd_export(args: argparse.Namespace, config: RunConfig) -> int:
    rng = config.rng()
    if args.kind == "heatmap":
        step = experiments.heatmap_experiment(
            args.family, args.n, args.reps, rng, threads=config.threads
        )
        name = args.out or f"heatmap_{args.family}_n{args.n}.{'csv' if config.format == 'csv' else 'pgm'}"
        path = config.out_dir / name
        if config.format == "csv":
            graphon.write_matrix_csv(step.cells, path)
        else:
            with open(path, "wb") as fh:
                graphon.write_pgm(step.cells, fh)
        print(path)
        return 0
    if args.kind == "excursion":
        rows = np.stack(
            [mmspace.sample_excursion(args.m, rng).values for _ in range(args.count)]
        )
        name = args.out or f"excursion_m{args.m}.csv"
        graphon.write_matrix_csv(rows, config.out_dir / name)
        print(config.out_dir / name)
        return 0
    # distance-matrix: all-pairs distances of one sampled graph
    if args.family == "perm":
        g = graphs.inversion_graph(combinat.sample_permutation(args.n, rng))
    elif args.family == "circle":
        g = graphs.circle_graph(combinat.sample_matching(args.n, rng))
    else:
        word = experiments.sample_connected_unit_interval_graph(args.n, rng)
        g = graphs.unit_interval_graph(word)
    dist = graphs.all_pairs_distances(g)
    name = args.out or f"distances_{args.family}_n{args.n}.csv"
    graphon.write_matrix_csv(dist, config.out_dir / name)
    print(config.out_dir / name)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="64-bit seed (env GRAPHLIM_SEED)")
    common.add_argument("--threads", default=None, help="the most worker threads, or 'auto' (env GRAPHLIM_THREADS)")
    common.add_argument("--out-dir", default=".", help="directory for output files")
    common.add_argument("--format", choices=("json", "csv", "pgm"), help="default: the command's own output")
    common.add_argument("--out", default=None, help="output file name (default: stdout where possible)")

    parser = argparse.ArgumentParser(
        prog="graphlim",
        description="Samplers, graph builders, verification suites, and exporters "
        "for permutation / circle / unit interval graph limits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", parents=[common], help="sample seed objects or graphs")
    p.add_argument("kind", choices=_SAMPLE_KINDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=1)

    p = sub.add_parser("build", parents=[common], help="build graphs from seed objects")
    p.add_argument("kind", choices=_BUILD_KINDS)
    p.add_argument("--input", default=None, help="file of seed objects, one per line (default stdin)")

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("suite", choices=_SUITES)
    p.add_argument("--nmax", type=int, default=6, help="[exact] largest exhaustive size")
    p.add_argument("--n", type=int, default=None, help="object size (suite-specific default)")
    p.add_argument("--k", type=int, default=2, help="[densities] clique size")
    p.add_argument("--kmax", type=int, default=None, help="[clique-scaling] largest k")
    p.add_argument("--family", choices=("perm", "circle"), default="perm")
    p.add_argument("--reps", type=int, default=None, help="repetitions (suite-specific default)")
    p.add_argument("--tol", type=float, default=None, help="[densities] absolute tolerance")
    p.add_argument("--max-moment", type=int, default=3, help="[poisson] factorial-moment order")
    p.add_argument("--delta", type=float, default=0.05, help="[gp] truncation level")
    p.add_argument("--m", type=int, default=None, help="excursion grid size")
    p.add_argument("--seeds-per-n", type=int, default=20, help="[gp] repetitions per size")
    p.add_argument("--draws", type=int, default=10000, help="[gp] two-point sample size")
    p.add_argument(
        "--n-values", type=_int_list, default=[1000, 4000, 16000], help="[gp] comma-separated sizes, strictly increasing"
    )
    p.add_argument("--two-point-n", type=int, default=None, help="[gp] size for the two-point law")
    p.add_argument("--cutoff", type=int, default=10, help="[components] deficiency threshold")

    p = sub.add_parser("export", parents=[common], help="export CSV/PGM artifacts")
    p.add_argument("kind", choices=_EXPORT_KINDS)
    p.add_argument("--family", choices=("perm", "circle", "unit-interval"), default="perm")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--reps", type=int, default=20, help="[heatmap] seeds to average")
    p.add_argument("--m", type=int, default=2048, help="[excursion] grid size")
    p.add_argument("--count", type=int, default=1, help="[excursion] samples")

    return parser


_VERIFY_DEFAULTS = {
    "poisson": {"n": 2000, "reps": 100_000},
    "densities": {"n": 1000, "reps": 50},
    "distance-formula": {"n": 200, "reps": 200},
    "gp": {"m": 2048},
    "clique-scaling": {"n": 10_000, "reps": 2000, "kmax": 3, "m": 32_768},
    "components": {"n": 2000, "reps": 2000},
}


def _apply_suite_defaults(args: argparse.Namespace) -> None:
    for key, value in _VERIFY_DEFAULTS.get(args.suite, {}).items():
        if getattr(args, key) is None:
            setattr(args, key, value)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        if args.command == "sample":
            return _cmd_sample(args, config)
        if args.command == "build":
            return _cmd_build(args, config)
        if args.command == "verify":
            _apply_suite_defaults(args)
            return _cmd_verify(args, config)
        return _cmd_export(args, config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 means only "a criterion failed", so a crash gets its own code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
