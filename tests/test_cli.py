"""Command-line interface: argument handling, seed policy, output formats,
and exit codes, exercised in-process through main(argv); the console script
is also run as its own process."""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphlim
from graphlim import cli, combinat, experiments, graphs


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def test_sample_matching_n1(capsys):
    code, out, err = run_cli(["sample", "matching", "--n", "1", "--seed", "5"], capsys)
    assert code == 0
    assert out == "1-2\n"
    assert "seed: 5" in err


def test_sample_irreducible_dyck_support(capsys):
    code, out, _ = run_cli(
        ["sample", "irreducible-dyck", "--n", "3", "--count", "20", "--seed", "1"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 20
    assert set(lines) <= {"UUUDDD", "UUDUDD"}


def test_sample_perm_reproducible(capsys):
    argv = ["sample", "perm", "--n", "5", "--count", "3", "--seed", "7"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    for line in out1.splitlines():
        assert sorted(combinat.parse_permutation(line).mapping) == [1, 2, 3, 4, 5]


def test_sample_uig_lines_parse_as_graphs(capsys):
    code, out, _ = run_cli(["sample", "uig", "--n", "6", "--count", "2", "--seed", "21"], capsys)
    assert code == 0
    for line in out.splitlines():
        g = graphs.parse_graph(line)
        assert g.n == 6


def test_sample_to_file_deterministic(tmp_path, capsys):
    base = ["sample", "dyck", "--n", "6", "--count", "4", "--seed", "9", "--out-dir", str(tmp_path)]
    assert cli.main(base + ["--out", "a.txt"]) == 0
    assert cli.main(base + ["--out", "b.txt"]) == 0
    capsys.readouterr()
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def test_seed_env_fallback(monkeypatch, capsys):
    monkeypatch.setenv("GRAPHLIM_SEED", "123")
    _, out_env, err = run_cli(["sample", "perm", "--n", "6"], capsys)
    assert "seed: 123" in err
    monkeypatch.delenv("GRAPHLIM_SEED")
    _, out_flag, _ = run_cli(["sample", "perm", "--n", "6", "--seed", "123"], capsys)
    assert out_env == out_flag


def test_sample_invalid_size_exits_2(capsys):
    code, _, err = run_cli(["sample", "perm", "--n", "0", "--seed", "1"], capsys)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("count", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "perm", "--n", "4", "--out", "x.txt"],
        ["export", "excursion", "--m", "16", "--out", "x.csv"],
    ],
)
def test_count_below_one_exits_2(tmp_path, capsys, argv, count):
    code, out, err = run_cli(argv + ["--count", count, "--seed", "1", "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert "error: count must be >= 1" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def test_build_inversion_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("2 1 3 4 5\n"))
    code, out, _ = run_cli(["build", "inversion", "--seed", "1"], capsys)
    assert code == 0
    assert out == "n=5; 1-2\n"


def test_build_circle_and_unit_interval(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("1-3 2-5 4-6\n"))
    code, out, _ = run_cli(["build", "circle", "--seed", "1"], capsys)
    assert code == 0
    assert graphs.parse_graph(out.strip()).n == 3
    monkeypatch.setattr(sys, "stdin", io.StringIO("UUDUDD\n"))
    code, out, _ = run_cli(["build", "unit-interval", "--seed", "1"], capsys)
    assert code == 0
    assert out == "n=3; 1-2 2-3\n"


def test_build_csv_outputs(tmp_path, capsys):
    src = tmp_path / "perms.txt"
    src.write_text("2 1 3\n3 1 2\n")
    code, _, _ = run_cli(
        [
            "build",
            "inversion",
            "--input",
            str(src),
            "--format",
            "csv",
            "--out",
            "g.csv",
            "--out-dir",
            str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "g_0.csv").exists() and (tmp_path / "g_1.csv").exists()
    single = tmp_path / "one.txt"
    single.write_text("2 1 3\n")
    code, _, _ = run_cli(
        [
            "build",
            "inversion",
            "--input",
            str(single),
            "--format",
            "csv",
            "--out",
            "solo.csv",
            "--out-dir",
            str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "solo.csv").exists()


def test_build_csv_without_out_fails(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("2 1 3\n"))
    code, _, err = run_cli(["build", "inversion", "--format", "csv", "--seed", "1"], capsys)
    assert code == 2
    assert "error:" in err


def test_build_malformed_seed_object_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("21345\n"))
    code, _, err = run_cli(["build", "inversion", "--seed", "1"], capsys)
    assert code == 2
    assert "error:" in err


def test_build_empty_input_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n\n"))
    code, _, err = run_cli(["build", "inversion", "--seed", "1"], capsys)
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_exact_passes(capsys):
    code, out, _ = run_cli(["verify", "exact", "--nmax", "4", "--seed", "3"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["name"] == "exact_enumeration_suite"
    assert report["pass"] is True
    assert report["params"] == {"n_max": 4}


def test_verify_exact_stdout_pinned(capsys):
    # recorded with the earlier one-graph-at-a-time suite
    code, out, _ = run_cli(["verify", "exact", "--nmax", "5", "--seed", "7"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "52f69350f33a51b6c8e98d85aa0ce7d2b22cd58ed6655d8644833d564eee89d5"
    )


def test_verify_report_to_file(tmp_path, capsys):
    code, out, _ = run_cli(
        [
            "verify",
            "distance-formula",
            "--n",
            "30",
            "--reps",
            "10",
            "--seed",
            "4",
            "--out",
            "report.json",
            "--out-dir",
            str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    assert out == ""
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["pass"] is True
    assert report["params"]["n_max"] == 30


def test_verify_densities_small(capsys):
    code, out, _ = run_cli(
        [
            "verify",
            "densities",
            "--family",
            "circle",
            "--n",
            "120",
            "--k",
            "2",
            "--reps",
            "20",
            "--tol",
            "0.05",
            "--seed",
            "6",
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert abs(report["estimates"][0]["value"] - 1 / 3) < 0.05


def test_verify_threads_env(monkeypatch, capsys):
    monkeypatch.setenv("GRAPHLIM_THREADS", "2")
    code, out, _ = run_cli(
        ["verify", "poisson", "--n", "40", "--reps", "400", "--max-moment", "1", "--seed", "8"],
        capsys,
    )
    assert code in (0, 1)  # statistical flag at tiny n is not the point here
    json.loads(out)


def test_verify_components_small(capsys):
    code, out, _ = run_cli(
        ["verify", "components", "--n", "150", "--reps", "200", "--seed", "9"], capsys
    )
    report = json.loads(out)
    assert code in (0, 1)
    assert "details" in report
    assert report["params"]["deficiency_cutoff"] == 10


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_export_heatmap_pgm(tmp_path, capsys):
    code, out, _ = run_cli(
        [
            "export",
            "heatmap",
            "--family",
            "perm",
            "--n",
            "8",
            "--reps",
            "2",
            "--seed",
            "13",
            "--format",
            "pgm",
            "--out-dir",
            str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    path = tmp_path / "heatmap_perm_n8.pgm"
    assert str(path) in out
    data = path.read_bytes()
    assert data.startswith(b"P5\n8 8\n255\n")


def test_export_heatmap_csv(tmp_path, capsys):
    code, _, _ = run_cli(
        [
            "export",
            "heatmap",
            "--family",
            "circle",
            "--n",
            "6",
            "--reps",
            "2",
            "--seed",
            "14",
            "--format",
            "csv",
            "--out",
            "hm.csv",
            "--out-dir",
            str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    cells = np.loadtxt(tmp_path / "hm.csv", delimiter=",")
    assert cells.shape == (6, 6)
    assert cells.min() >= 0.0 and cells.max() <= 1.0


def test_export_excursion_csv(tmp_path, capsys):
    code, _, _ = run_cli(
        [
            "export",
            "excursion",
            "--m",
            "16",
            "--count",
            "3",
            "--seed",
            "15",
            "--out-dir",
            str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    rows = np.loadtxt(tmp_path / "excursion_m16.csv", delimiter=",")
    assert rows.shape == (3, 17)
    assert (rows[:, 0] == 0).all() and (rows[:, -1] == 0).all()
    assert (rows >= 0).all()


def test_export_distance_matrix(tmp_path, capsys):
    code, _, _ = run_cli(
        [
            "export",
            "distance-matrix",
            "--family",
            "unit-interval",
            "--n",
            "12",
            "--seed",
            "16",
            "--out-dir",
            str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    dist = np.loadtxt(tmp_path / "distances_unit-interval_n12.csv", delimiter=",")
    assert dist.shape == (12, 12)
    assert np.allclose(dist, dist.T)
    assert (np.diag(dist) == 0).all()


# ---------------------------------------------------------------------------
# argument errors and the installed entry point
# ---------------------------------------------------------------------------


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["sample", "perm"])  # missing --n
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["sample", "nonsense", "--n", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["export", "heatmap", "--n", "6", "--reps", "-1"], "reps must be >= 1"),
        (["export", "heatmap", "--n", "6", "--reps", "0"], "reps must be >= 1"),
        (["verify", "components", "--n", "10", "--reps", "2", "--cutoff", "-1"], "deficiency_cutoff must be >= 0"),
        (["verify", "poisson", "--n", "10", "--reps", "20", "--max-moment", "0"], "max_moment must be >= 1"),
    ],
)
def test_argument_below_range_exits_2(tmp_path, capsys, argv, message):
    # a bad argument is a usage error, never a crash (3) or a failed criterion (1)
    code, out, err = run_cli(argv + ["--seed", "1", "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert f"error: {message}" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "gp", "--n-values", "50", "--seeds-per-n", "0", "--draws", "10"], "seeds_per_n and draws must be >= 1"),
        (["verify", "gp", "--n-values", "50", "--seeds-per-n", "1", "--draws", "0"], "seeds_per_n and draws must be >= 1"),
        (["verify", "densities", "--n", "50", "--reps", "3", "--tol", "-1"], "tol must be >= 0"),
        (["verify", "densities", "--n", "50", "--reps", "3", "--tol", "nan"], "tol must be >= 0"),
        (["verify", "clique-scaling", "--n", "0", "--reps", "10", "--m", "64"], "n must be >= 1"),
        (
            ["verify", "gp", "--delta", "0.5", "--n-values", "50", "--seeds-per-n", "1", "--draws", "10", "--m", "64"],
            "delta and m must leave at least 2 grid points",
        ),
        (["verify", "densities", "--n", "50", "--reps", "1"], "reps must be >= 2 unless tol is given"),
    ],
)
def test_empty_sample_or_bad_tolerance_exits_2(capsys, argv, message):
    # an empty sample has no median or KS statistic, one rep has no standard
    # error to set a default tolerance, and no mean meets a negative
    # tolerance: a usage error, not a crash (3) or a failed criterion (1)
    code, out, err = run_cli(argv + ["--seed", "1"], capsys)
    assert code == 2
    assert f"error: {message}" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--delta", "0.5"], "delta and m must leave at least 2 grid points"),
        (["--delta", "0"], "delta must lie in (0, 0.5]"),
        (["--m", "1"], "grid size m must be >= 2"),
        (["--delta", "0.001", "--m", "64"], "truncation level must keep the grid off the boundary cells"),
        (["--n-values", "50,0"], "n_values and two_point_n must be >= 1"),
        (["--n-values", "-5"], "n_values and two_point_n must be >= 1"),
        (["--two-point-n", "0"], "n_values and two_point_n must be >= 1"),
    ],
)
def test_verify_gp_bad_grid_exits_2_before_any_draw(capsys, monkeypatch, argv, message):
    # the grid and the sizes are checked before the default 10,000
    # two-point draws
    def no_draw(*args):
        raise AssertionError("two-point draw made before the grid was checked")

    monkeypatch.setattr(experiments, "_two_point_graph_draw", no_draw)
    code, out, err = run_cli(["verify", "gp", *argv, "--seed", "3"], capsys)
    assert code == 2
    assert f"error: {message}" in err
    assert out == ""


@pytest.mark.parametrize("argv", [["--m", "1"], ["--m", "-3"]])
def test_verify_clique_scaling_bad_grid_exits_2_before_any_draw(capsys, monkeypatch, argv):
    # the excursion grid is checked before the graph side draws its samples
    def no_draw(*args):
        raise AssertionError("graph draw made before the grid was checked")

    monkeypatch.setattr(experiments, "_sample_uig_words", no_draw)
    code, out, err = run_cli(["verify", "clique-scaling", *argv, "--seed", "1"], capsys)
    assert code == 2
    assert "error: grid size m must be >= 2" in err
    assert out == ""


@pytest.mark.parametrize("n", ["1", "2"])
def test_undefined_estimate_is_strict_json(capsys, n):
    # with at most two vertices every graph-side draw is equal, so the
    # edge/triangle correlation is undefined: null, never a bare NaN token
    code, out, _ = run_cli(["verify", "clique-scaling", "--n", n, "--reps", "10", "--m", "64", "--seed", "1"], capsys)
    assert code == 1

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    report = json.loads(out, parse_constant=reject)
    assert report["estimates"][-1] == {"label": "corr_edges_triangles", "stderr": None, "value": None}


def test_internal_error_exits_3(monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise AssertionError("Euler recursion must divide exactly")

    monkeypatch.setattr(cli.experiments, "largest_component_stats", crash)
    code, out, err = run_cli(["verify", "components", "--n", "10", "--reps", "2", "--seed", "1"], capsys)
    assert code == 3
    assert out == ""
    assert "internal error: AssertionError: Euler recursion must divide exactly" in err
    assert "Traceback" not in err


def _run_matching_sample(argv_head, env=None):
    proc = subprocess.run(
        [*argv_head, "sample", "matching", "--n", "2", "--seed", "1"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert combinat.parse_matching(proc.stdout.strip()).size == 2


def test_console_script_installed(tmp_path):
    """The ``graphlim`` console script declared in ``pyproject.toml`` runs as
    its own process.  The entry point is read from this checkout and run
    through the wrapper that pip writes for a console script, so no install is
    needed; an installed ``graphlim`` on ``PATH`` is run as well."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")

    src_dir = Path(graphlim.__file__).resolve().parent.parent
    with open(src_dir.parent / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["graphlim"]
    module_name, _, attr = entry.partition(":")
    assert getattr(importlib.import_module(module_name), attr) is cli.main

    wrapper = tmp_path / "graphlim"
    wrapper.write_text(
        "import sys\n"
        f"from {module_name} import {attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n"
    )
    # Only this checkout's src may answer the import, not whatever
    # PYTHONPATH the test run inherited.
    env = {**os.environ, "PYTHONPATH": str(src_dir)}
    _run_matching_sample([sys.executable, str(wrapper)], env=env)

    exe = shutil.which("graphlim")
    if exe is not None:
        _run_matching_sample([exe])


def test_python_dash_m_runs_cli():
    src_dir = Path(graphlim.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src_dir)}
    _run_matching_sample([sys.executable, "-m", "graphlim"], env=env)
