"""End-to-end tests of the command-line front end (in-process)."""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from pathlib import Path
from textwrap import dedent

import pytest

from caccsim import cli
from caccsim.cli import main
from caccsim.controllers import GainPair
from caccsim.gaintable import (
    AxisGrid,
    BuildConfig,
    CandidateSets,
    GainTable,
    load_table,
    save_table,
)
from caccsim.stability import string_stability_margin

ROOT = Path(__file__).resolve().parents[1]

# sha256 of the suite's trajectory CSVs on the production table, recorded
# from the per-step scalar harness that the array kernel replaced.
SUITE_TRAJECTORY_SHA256 = {
    "scenario1_fixed_consensus.csv": "88fb9a1a99b0fd3b62780f4607d25af9aca37d835eeeaaf2b58d9167f756b6d7",
    "scenario1_linear_feedback.csv": "a5ff5b8e5d356c8fdcd86d35090b1a8e2049e87dab32c6618c31e05390374d46",
    "scenario1_lookup.csv": "450821537ee25b8564a6ed2fbf73f66a42a1fb7c81bda0f136177e4723d85b65",
    "scenario2_fixed_consensus.csv": "35590b92761894a31660c9e491eee52044a70a8e5ebfada99467a837d82a091f",
    "scenario2_linear_feedback.csv": "914e726f5ce3548d3daaa409dd3fa64db2934f6341cfeca371aac9eb2ee65b9d",
    "scenario2_lookup.csv": "eb59a5b39c52ecc6902084a92233d492870a1153a881950790ea87fd1ded5f0d",
    "scenario3_fixed_consensus.csv": "f598625b16442fb8fbe80afa18b0bbc0bd6db10b27c268dcc9c1b01ffcec5f3b",
    "scenario3_linear_feedback.csv": "9f6ea95b76964ad539bf23947c73bc778d0e558fddfabd8887cdd0f6e1714b0a",
    "scenario3_lookup.csv": "d4e11efa9f17ff9e7868c335727c72063decc73713835b8a6764ccfb6292ab87",
    "scenario4_fixed_consensus.csv": "6022f49d6dc8f51dc787a413f9f365af10812717125994629c73581cd21ebef9",
    "scenario4_linear_feedback.csv": "bc77a1ccefcfa5ac4ac07f05ef4f90b41bcb8379bc0226ee46de2a8ae32cd1e2",
    "scenario4_lookup.csv": "73241c159442a3a5a22c5e1b9e9b96be6d656fd2e918b18be9ae12bfeae8a8fb",
}


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    """Config files plus a small table built through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")

    def write(name, text):
        path = root / name
        path.write_text(dedent(text), encoding="utf-8")
        return str(path)

    env = {
        "root": root,
        "axes": write(
            "axes.ini",
            """
            [axes]
            dr = 10,20
            vi = 10,14
            vj = 10,14
            """,
        ),
        "candidates": write(
            "candidates.ini",
            """
            [candidates]
            gamma = 2,5
            k = 0.1
            """,
        ),
        "build": write(
            "build.ini",
            """
            [build]
            t_max = 60
            """,
        ),
        "run_short": write(
            "run_short.ini",
            """
            [build]
            t_max = 20
            """,
        ),
        "same_lane": write(
            "same_lane.ini",
            """
            [build]
            t_max = 10
            safety_mode = same_lane
            """,
        ),
        "baselines": write(
            "baselines.ini",
            """
            [fixed_consensus]
            gamma = 1.0
            k = 0.1

            [linear_feedback]
            k_a = 1.0
            k_v = 0.58
            k_d = 0.1
            standstill_gap = 1.0
            """,
        ),
        "scenario_hit": write(
            "scenario_hit.ini",
            """
            [scenario]
            id = hit
            dr0 = 20
            vi0 = 14
            vj0 = 14
            controller = lookup
            """,
        ),
        "scenario_unsafe": write(
            "scenario_unsafe.ini",
            """
            [scenario]
            id = cutin
            dr0 = -30
            vi0 = 18
            vj0 = 10
            controller = fixed_consensus

            [controller_params]
            gamma = 5.0
            k = 0.1
            """,
        ),
        "table": str(root / "table.txt"),
    }

    rc = main([
        "build-table",
        "--axes", env["axes"],
        "--candidates", env["candidates"],
        "--config", env["build"],
        "--out", env["table"],
    ])
    assert rc == 0
    return env


def test_build_table_output(cli_env, capsys):
    rc = main([
        "build-table",
        "--axes", cli_env["axes"],
        "--candidates", cli_env["candidates"],
        "--config", cli_env["build"],
        "--out", str(cli_env["root"] / "rebuild.txt"),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "built 8 cells" in out
    assert "8 valid" in out


def test_build_table_workers_flag_gives_identical_bytes(cli_env):
    out2 = cli_env["root"] / "parallel.txt"
    rc = main([
        "build-table",
        "--axes", cli_env["axes"],
        "--candidates", cli_env["candidates"],
        "--config", cli_env["build"],
        "--out", str(out2),
        "--workers", "2",
    ])
    assert rc == 0
    serial = (cli_env["root"] / "table.txt").read_bytes()
    assert out2.read_bytes() == serial


def test_inspect_table_summary(cli_env, capsys):
    rc = main(["inspect-table", cli_env["table"]])
    out = capsys.readouterr().out
    assert rc == 0
    assert "gain table 2x2x2 (8 cells, 8 valid)" in out
    assert "tie rule:" in out
    assert "dr axis (m): 10, 20" in out


def test_inspect_table_cell_peek(cli_env, capsys):
    rc = main(["inspect-table", cli_env["table"], "--cell", "1", "1", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "cell (1, 1, 1)" in out
    assert "gamma=5" in out


def test_inspect_table_cell_out_of_bounds(cli_env, capsys):
    rc = main(["inspect-table", cli_env["table"], "--cell", "9", "0", "0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "outside" in err


def test_run_lookup_hit(cli_env, capsys):
    out_dir = cli_env["root"] / "run_hit"
    rc = main([
        "run",
        "--scenario", cli_env["scenario_hit"],
        "--config", cli_env["build"],
        "--table", cli_env["table"],
        "--out-dir", str(out_dir),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "scenario hit: controller=lookup fallback=no" in out
    assert "gains: gamma=5 k=0.1" in out
    assert (out_dir / "hit_lookup.csv").exists()


def test_run_safety_violation_fails(cli_env, capsys):
    out_dir = cli_env["root"] / "run_unsafe"
    rc = main([
        "run",
        "--scenario", cli_env["scenario_unsafe"],
        "--config", cli_env["same_lane"],
        "--out-dir", str(out_dir),
    ])
    captured = capsys.readouterr()
    assert rc == 1
    assert "safety violated: yes" in captured.out
    assert "allow-unsafe" in captured.err
    assert (out_dir / "cutin_fixed_consensus.csv").exists()


def test_run_allow_unsafe_overrides_exit_code(cli_env, capsys):
    out_dir = cli_env["root"] / "run_unsafe_ok"
    rc = main([
        "run",
        "--scenario", cli_env["scenario_unsafe"],
        "--config", cli_env["same_lane"],
        "--out-dir", str(out_dir),
        "--allow-unsafe",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    assert "safety violated: yes" in captured.out


@pytest.mark.parametrize("absolute", [False, True], ids=["relative", "absolute"])
def test_run_without_id_writes_inside_out_dir(cli_env, tmp_path, monkeypatch, capsys, absolute):
    """A scenario file without an id key names the run, and its CSV, by the
    file's stem, so the CSV lands in --out-dir whether the file is given by
    a relative or an absolute path."""
    monkeypatch.chdir(tmp_path)
    scenario = tmp_path / "cfg" / "noid.ini"
    scenario.parent.mkdir()
    scenario.write_text(
        "[scenario]\ndr0 = 20\nvi0 = 14\nvj0 = 14\n"
        "controller = linear_feedback\n",
        encoding="utf-8",
    )
    rc = main([
        "run",
        "--scenario", str(scenario if absolute else scenario.relative_to(tmp_path)),
        "--config", cli_env["run_short"],
        "--out-dir", "runs",
    ])
    assert rc == 0
    assert "scenario noid: controller=linear_feedback" in capsys.readouterr().out
    written = [p.relative_to(tmp_path) for p in tmp_path.rglob("*.csv")]
    assert written == [Path("runs", "noid_linear_feedback.csv")]


def test_run_lookup_without_table_raises(cli_env, tmp_path, capsys):
    rc = main([
        "run",
        "--scenario", cli_env["scenario_hit"],
        "--config", cli_env["build"],
        "--out-dir", str(tmp_path / "x"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("caccsim: error: ") and "table" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["stability", "--gamma", "0", "--k", "0.1"], "gamma must be positive"),
        (["build-table", "--axes", "{axes}", "--candidates", "{candidates}",
          "--config", "{build}", "--out", "{root}/w0.txt", "--workers", "0"],
         "workers must be at least 1"),
        (["build-table", "--axes", "{axes}", "--candidates", "{candidates}",
          "--config", "{bad}", "--out", "{root}/bad.txt"], "t_max must exceed"),
        (["inspect-table", "{axes}"], "table format version"),
        (["inspect-table", "{root}/missing.txt"], "No such file or directory"),
        (["run", "--scenario", "{scenario_unsafe}", "--config", "{run_short}",
          "--out-dir", "{axes}"], "File exists"),
        (["stability", "--gamma", "2"], "needs either --table or both --gamma and --k"),
        (["stability", "--table", "{table}", "--gamma", "1", "--k", "1"],
         "either --table or --gamma and --k, not both"),
        (["stability", "--table", "{table}", "--k", "1"],
         "either --table or --gamma and --k, not both"),
        (["inspect-table", "{table}", "--cell", "0", "0", "2"],
         "--cell: cell index (0, 0, 2) outside 2x2x2"),
    ],
    ids=["stability-gamma-0", "workers-0", "bad-config", "bad-table", "missing-table",
         "out-dir-is-a-file", "stability-without-gains", "stability-table-and-gains",
         "stability-table-and-k", "cell-outside"],
)
def test_bad_input_is_an_error_line_not_a_traceback(
    cli_env, tmp_path, capsys, argv, message
):
    bad = tmp_path / "bad.ini"
    bad.write_text("[build]\nt_max = 0\n", encoding="utf-8")
    rc = main([arg.format(bad=bad, **cli_env) for arg in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("caccsim: error: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("out", ["missing/table.txt", "axes.ini/table.txt"],
                         ids=["missing-dir", "file"])
def test_build_table_refuses_out_outside_a_directory_before_building(
    cli_env, monkeypatch, capsys, out
):
    """An --out whose parent is not a directory fails at once, not after
    the build."""
    def no_build(*args, **kwargs):
        raise AssertionError("build_table was called")

    monkeypatch.setattr(cli, "build_table", no_build)
    rc = main(["build-table", "--axes", cli_env["axes"], "--candidates",
               cli_env["candidates"], "--config", cli_env["build"],
               "--out", str(cli_env["root"] / out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"caccsim: error: --out {cli_env['root'] / out}: ")
    assert err.endswith(" is not a directory\n") and err.count("\n") == 1


@pytest.mark.parametrize("unwritable", [False, True], ids=["directory", "unwritable"])
def test_build_table_refuses_out_it_cannot_write_before_building(
    cli_env, monkeypatch, capsys, tmp_path, unwritable
):
    """An --out that is an existing directory, or that sits in a directory
    that cannot be written, fails at once as one error line, not after the
    build.  The unwritable directory is also made read-only, which a
    superuser may still write, so os.access is told to refuse it."""
    def no_build(*args, **kwargs):
        raise AssertionError("build_table was called")

    monkeypatch.setattr(cli, "build_table", no_build)
    if unwritable:
        locked = tmp_path / "locked"
        locked.mkdir(mode=0o500)
        out, ends = locked / "table.txt", f": {locked} is not writable\n"
        access = os.access
        monkeypatch.setattr(
            cli.os, "access", lambda path, mode: Path(path) != locked and access(path, mode)
        )
    else:
        out, ends = tmp_path, ": is a directory\n"
    rc = main(["build-table", "--axes", cli_env["axes"], "--candidates",
               cli_env["candidates"], "--config", cli_env["build"],
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"caccsim: error: --out {out}{ends}"


def test_suite_writes_reports(cli_env, capsys):
    out_dir = cli_env["root"] / "suite"
    rc = main([
        "suite",
        "--table", cli_env["table"],
        "--config", cli_env["run_short"],
        "--baselines", cli_env["baselines"],
        "--out-dir", str(out_dir),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "benchmark suite summary" in out
    assert (out_dir / "comparison.csv").exists()
    assert (out_dir / "summary.txt").exists()
    csvs = sorted(p.name for p in out_dir.glob("scenario*_*.csv"))
    assert len(csvs) == 12


def test_stability_explicit_pair(capsys):
    rc = main(["stability", "--gamma", "3", "--k", "0.1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "max|G|=" in out
    assert "stable" in out
    # The speed-weight bound of a one-vehicle predecessor chain is always 0.
    assert "speed-weight bound" not in out
    assert "cleared" not in out


def test_stability_unstable_pair(capsys):
    rc = main(["stability", "--gamma", "1", "--k", "1.2"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "UNSTABLE" in out


def test_stability_overflowed_pair_reads_unstable(capsys):
    """gamma = 1e307 overflows the magnitude at the highest sweep points.
    An overflowed point counts like any other, so the pair reads UNSTABLE;
    no point is skipped and no numpy warning is raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["stability", "--gamma", "1e307", "--k", "0.1"])
    assert caught == []
    out = capsys.readouterr().out
    assert rc == 1
    assert "-> UNSTABLE" in out
    assert "skipped" not in out and "denominator" not in out


def test_stability_table_mode(cli_env, capsys):
    rc = main(["stability", "--table", cli_env["table"]])
    out = capsys.readouterr().out
    assert rc == 0
    assert "distinct stored gain pairs" in out
    assert "all stable" in out


def _stability_line(gamma, k, time_gap, comm_delay):
    margin = string_stability_margin(
        GainPair(k=k, gamma=gamma), time_gap=time_gap, comm_delay=comm_delay
    )
    verdict = "stable" if margin.stable else "UNSTABLE"
    return (f"gamma={gamma:g} k={k:g}: max|G|={margin.max_magnitude:.6f} "
            f"at omega={margin.worst_omega:.4g} rad/s -> {verdict}")


def test_each_stability_mode_judges_its_pairs_under_its_own_settings(tmp_path, capsys):
    """A table's pairs are judged at the table's own time gap and delay, an
    explicit pair at BuildConfig()'s; each printed line is exactly the line
    of that pair's margin."""
    table = GainTable(
        AxisGrid(dr=[10, 20], vi=[10], vj=[10]),
        CandidateSets(gammas=[2, 5], ks=[0.1]),
        BuildConfig(time_gap=1.0),
        k_cells=[0.1, 0.1],
        gamma_cells=[5, 2],
    )
    path = tmp_path / "time_gap_1.txt"
    save_table(table, path)
    defaults = BuildConfig()
    own = [_stability_line(g, 0.1, time_gap=1.0, comm_delay=0.06) for g in (2, 5)]
    at_defaults = [_stability_line(g, 0.1, defaults.time_gap, defaults.comm_delay)
                   for g in (2, 5)]
    assert all(a != b for a, b in zip(own, at_defaults))

    assert main(["stability", "--table", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == own + [
        "2 distinct stored gain pairs; all stable"
    ]
    for gamma, line in zip(("2", "5"), at_defaults):
        assert main(["stability", "--gamma", gamma, "--k", "0.1"]) == 0
        assert capsys.readouterr().out.splitlines() == [line]


def test_stability_requires_arguments(capsys):
    rc = main(["stability"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "--gamma" in err


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


def test_suite_on_the_production_table_reproduces_the_reference_bytes(tmp_path, capsys):
    """The suite on the kept production table writes the summary and the
    comparison the benchmark's manifest records, and trajectory CSVs equal
    to the recorded ones, byte for byte."""
    reference = ROOT / "perfbench" / "reference"
    manifest = json.loads((reference / "manifest.json").read_text(encoding="utf-8"))
    configs = ROOT / "configs"
    code = main([
        "suite",
        "--table", str(reference / "table.txt"),
        "--config", str(configs / "build_default.ini"),
        "--baselines", str(configs / "baselines_default.ini"),
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    assert manifest["suite"]["verdict_line"] in capsys.readouterr().out.splitlines()

    def sha256(name):
        return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

    assert sha256("summary.txt") == manifest["suite"]["summary_sha256"]
    assert sha256("comparison.csv") == manifest["suite"]["comparison_sha256"]
    written = sorted(p.name for p in tmp_path.glob("*.csv") if p.name != "comparison.csv")
    assert written == sorted(SUITE_TRAJECTORY_SHA256)
    for name, digest in SUITE_TRAJECTORY_SHA256.items():
        assert sha256(name) == digest, name
