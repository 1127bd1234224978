"""Command-line front end.

Subcommands: build-table (offline grid search), run (one scenario), suite
(benchmark comparison), stability (gain checks), inspect-table (table
summary and cell peek).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path

from .config import (
    load_axes,
    load_baselines,
    load_build_config,
    load_candidates,
    load_scenario,
    load_sweep,
)
from .controllers import GainPair
from .gaintable import TIE_RULE, BuildConfig, build_table, load_table, save_table
from .harness import (
    format_suite_summary,
    run_scenario,
    run_suite,
    write_comparison_csv,
    write_trajectory_csv,
)
from .stability import FrequencySweep, string_stability_margin

__all__ = ["main"]


def _cmd_build_table(args) -> int:
    # The build takes seconds to minutes, so a table it could not save is
    # refused before it starts.
    out = Path(args.out)
    if out.is_dir():
        raise ValueError(f"--out {args.out}: is a directory")
    if not out.parent.is_dir():
        raise ValueError(f"--out {args.out}: {out.parent} is not a directory")
    if not os.access(out.parent, os.W_OK | os.X_OK):
        raise ValueError(f"--out {args.out}: {out.parent} is not writable")
    if out.exists() and not os.access(out, os.W_OK):
        raise ValueError(f"--out {args.out}: is not writable")
    axes = load_axes(args.axes)
    candidates = load_candidates(args.candidates)
    cfg = load_build_config(args.config)
    started = time.monotonic()
    table = build_table(axes, candidates, cfg, workers=args.workers)
    elapsed = time.monotonic() - started
    save_table(table, args.out)
    valid = int(table.valid_mask().sum())
    total = table.k_cells.size
    print(f"built {total} cells ({valid} valid, {total - valid} marker) "
          f"in {elapsed:.1f} s -> {args.out}")
    return 0


def _cmd_run(args) -> int:
    cfg = load_build_config(args.config)
    scenario = load_scenario(args.scenario)
    table = load_table(args.table) if args.table else None
    report, trajectory = run_scenario(scenario, cfg, table=table)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{report.scenario_id}_{report.controller}.csv"
    write_trajectory_csv(csv_path, trajectory, cfg.thresholds)

    m = report.metrics
    t_text = "not reached" if math.isinf(m.t_consensus) else f"{m.t_consensus:.2f} s"
    print(f"scenario {report.scenario_id}: controller={report.controller} "
          f"fallback={'yes' if report.fallback_engaged else 'no'}")
    if report.gains is not None:
        print(f"gains: gamma={report.gains.gamma:g} k={report.gains.k:g}")
    print(f"consensus: {t_text}")
    print(f"peak accel/decel: {m.max_accel:.3f}/{m.max_decel:.3f} m/s^2, "
          f"jerk range [{m.min_jerk:.3f}, {m.max_jerk:.3f}] m/s^3")
    print(f"min gap: {m.min_gap:.3f} m, safety violated: "
          f"{'yes' if m.safety_violated else 'no'}")
    print(f"trajectory: {csv_path}")

    if m.safety_violated and not args.allow_unsafe:
        print("gap floor violated; failing (use --allow-unsafe to override)",
              file=sys.stderr)
        return 1
    return 0


def _cmd_suite(args) -> int:
    cfg = load_build_config(args.config)
    table = load_table(args.table)
    baselines = load_baselines(args.baselines)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_suite(table, cfg, baselines, out_dir)
    write_comparison_csv(out_dir / "comparison.csv", result.reports)
    summary = format_suite_summary(result)
    (out_dir / "summary.txt").write_text(summary, encoding="utf-8", newline="\n")
    print(summary, end="")
    print(f"reports written to {out_dir}")
    return 0


def _cmd_stability(args) -> int:
    if args.table and (args.gamma is not None or args.k is not None):
        raise ValueError("stability takes either --table or --gamma and --k, not both")
    sweep = load_sweep(args.sweep) if args.sweep else FrequencySweep()
    if args.table:
        table = load_table(args.table)
        cfg, pairs = table.config, table.distinct_valid_pairs()
        if not pairs:
            print("table holds no valid cells")
            return 1
    elif args.gamma is None or args.k is None:
        raise ValueError("stability needs either --table or both --gamma and --k")
    else:
        cfg, pairs = BuildConfig(), [(args.gamma, args.k)]
    all_stable = True
    for gamma, k in pairs:
        margin = string_stability_margin(
            GainPair(k=k, gamma=gamma), time_gap=cfg.time_gap,
            comm_delay=cfg.comm_delay, sweep=sweep,
        )
        all_stable = all_stable and margin.stable
        print(f"gamma={gamma:g} k={k:g}: max|G|={margin.max_magnitude:.6f} "
              f"at omega={margin.worst_omega:.4g} rad/s -> "
              f"{'stable' if margin.stable else 'UNSTABLE'}")
    if args.table:
        print(f"{len(pairs)} distinct stored gain pairs; "
              f"{'all stable' if all_stable else 'instability found'}")
    return 0 if all_stable else 1


def _cmd_inspect_table(args) -> int:
    table = load_table(args.table)
    z1, z2, z3 = table.shape
    valid = int(table.valid_mask().sum())
    cfg = table.config
    print(f"gain table {z1}x{z2}x{z3} ({z1 * z2 * z3} cells, {valid} valid)")
    print(f"dr axis (m): {', '.join(f'{v:g}' for v in table.axes.dr)}")
    print(f"vi axis (m/s): {', '.join(f'{v:g}' for v in table.axes.vi)}")
    print(f"vj axis (m/s): {', '.join(f'{v:g}' for v in table.axes.vj)}")
    print(f"candidates gamma: {', '.join(f'{v:g}' for v in table.candidates.gammas)}")
    print(f"candidates k: {', '.join(f'{v:g}' for v in table.candidates.ks)}")
    print(f"settings: dt={cfg.dt:g} s, horizon={cfg.t_max:g} s, "
          f"delay={cfg.comm_delay:g} s, leader length={cfg.leader_length:g} m, "
          f"time gap={cfg.time_gap:g} s, mode={cfg.safety_mode.value}, "
          f"hold={cfg.hold_window:g} s")
    print(f"tie rule: {TIE_RULE}")
    if args.cell is not None:
        i1, i2, i3 = args.cell
        try:
            pair = table.cell(i1, i2, i3)
        except IndexError as exc:
            raise ValueError(f"--cell: {exc}") from exc
        coords = (f"dr={table.axes.dr[i1]:g} m, vi={table.axes.vi[i2]:g} m/s, "
                  f"vj={table.axes.vj[i3]:g} m/s")
        if pair.valid:
            print(f"cell ({i1}, {i2}, {i3}) [{coords}]: "
                  f"gamma={pair.gamma:g} k={pair.k:g}")
        else:
            print(f"cell ({i1}, {i2}, {i3}) [{coords}]: marker "
                  f"(no admissible candidate)")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caccsim",
        description="Gain-table scheduling for delay-aware CACC car following",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-table", help="offline grid search over the axes")
    p.add_argument("--axes", required=True, help="axes config file")
    p.add_argument("--candidates", required=True, help="candidate gains config file")
    p.add_argument("--config", required=True, help="build settings config file")
    p.add_argument("--out", required=True, help="output table file")
    p.add_argument("--workers", type=int, default=1, help="parallel processes")
    p.set_defaults(func=_cmd_build_table)

    p = sub.add_parser("run", help="run one scenario")
    p.add_argument("--scenario", required=True, help="scenario config file")
    p.add_argument("--config", required=True, help="run settings config file")
    p.add_argument("--table", help="gain table file (needed for lookup control)")
    p.add_argument("--out-dir", required=True, help="directory for the trajectory CSV")
    p.add_argument("--allow-unsafe", action="store_true",
                   help="exit 0 even when the gap floor is violated")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("suite", help="benchmark three controllers on four scenarios")
    p.add_argument("--table", required=True, help="gain table file")
    p.add_argument("--config", required=True, help="run settings config file")
    p.add_argument("--baselines", required=True, help="baseline gains config file")
    p.add_argument("--out-dir", required=True, help="directory for reports")
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("stability", help="string-stability check of gain pairs")
    p.add_argument("--table", help="check every stored gain pair of this table")
    p.add_argument("--gamma", type=float, help="explicit speed-error weight")
    p.add_argument("--k", type=float, help="explicit position gain")
    p.add_argument("--sweep", help="sweep config file")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("inspect-table", help="summarize a table file")
    p.add_argument("table", help="gain table file")
    p.add_argument("--cell", nargs=3, type=int, metavar=("I1", "I2", "I3"),
                   help="print one cell")
    p.set_defaults(func=_cmd_inspect_table)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; a ValueError from bad input, or an OSError from a
    path that cannot be read or written, is reported as
    "caccsim: error: <message>" on stderr with exit status 2."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"caccsim: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
