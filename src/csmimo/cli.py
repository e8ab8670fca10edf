"""Command line front end: run sweeps to CSV and print matrix diagnostics."""

from __future__ import annotations

import argparse
import sys

from . import analysis
from .csmux import gen_phi, phi_to_text
from .detection import SOLVERS, block_width
from .errors import CsmimoError
from .harness import read_config, run_sweep, spec_from_dict
from .modem import get_constellation


# simulate flag -> the config field it overrides; flags replace file values
# before the spec checks them, so a flag can mend a value the spec refuses
_OVERRIDES = {
    "snr": "snr_db", "trials": "trials", "seed": "master_seed", "solver": "solver",
    "baseline": "baseline",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csmimo",
        description="Link-level simulator for compressive-sensing MIMO multiplexing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run an SNR sweep and write a CSV")
    sim.add_argument("--config", required=True, help="JSON experiment config")
    sim.add_argument("--snr", help="override grid: start:step:stop or comma list (dB)")
    sim.add_argument("--trials", type=int, help="override trial cap per SNR point")
    sim.add_argument("--seed", type=int, help="override master seed")
    sim.add_argument("--solver", choices=SOLVERS, help="override recovery solver")
    sim.add_argument(
        "--baseline", choices=["zf", "overload"], help="run a baseline instead"
    )
    sim.add_argument("--out", required=True, help="output CSV path")

    an = sub.add_parser("analyze", help="print measurement-matrix diagnostics")
    an.add_argument("--config", required=True, help="JSON experiment config")
    an.add_argument("--phi-seed", type=int, help="override the matrix seed")
    an.add_argument("--dump-phi", metavar="PATH", help="write the matrix as text rows")
    return parser


def _cmd_simulate(args) -> int:
    given = {f: getattr(args, a) for a, f in _OVERRIDES.items() if getattr(args, a) is not None}
    spec = spec_from_dict({**read_config(args.config), **given})
    result = run_sweep(spec)
    result.write_csv(args.out)
    mode = spec.baseline or f"cs/{spec.solver}"
    print(f"{spec.notation} [{mode}] -> {args.out}")
    for row in result.rows:
        print(
            f"  snr {row.snr_db:6.1f} dB  trials {row.trials:6d}"
            f"  ber {row.ber:.3e}  ser {row.ser:.3e}  throughput {row.throughput:.2f}"
        )
    return 0


def _cmd_analyze(args) -> int:
    raw = read_config(args.config)
    if args.phi_seed is not None:
        raw["phi_seed"] = args.phi_seed
    cfg = spec_from_dict(raw).config
    # the pairwise check holds √q**n × √q**n = q**n distances
    d = block_width(cfg, "analyze")
    phi, alphabet, n = gen_phi(cfg), get_constellation(cfg.constellation), cfg.subblock_cols

    print(f"setup: ({cfg.nt},{cfg.nr})-{cfg.l}  [{cfg.constellation}, J={cfg.j}, rho={cfg.rho:g}]")
    print(
        f"phi: {phi.phi.shape[0]}x{phi.phi.shape[1]} gaussian, seed {cfg.phi_seed},"
        f" entry std {phi.scale:.6g}"
    )
    if phi.phi.shape[1] <= analysis.SPARK_MAX_COLUMNS:
        print(f"spark(phi): {analysis.spark(phi.phi)} (rows + 1 = {phi.phi.shape[0] + 1})")
    for k in (1, 2):
        if k <= phi.phi.shape[1]:
            est = analysis.rip_constant(phi.phi, k)
            tag = "exhaustive" if est.exhaustive else f"sampled {est.n_supports}"
            print(f"delta_{k}(phi): {est.delta:.6g} ({tag})")
    print(f"dictionary: n={n}, d={d} columns")
    report = analysis.verify_uniqueness(phi, alphabet, n)
    print(
        f"uniqueness(phi*psi): unique={report.unique},"
        f" min pairwise distance {report.min_distance:.6g}"
        f" (threshold {report.threshold:.3g})"
    )
    # with unit-norm columns delta_2 is the largest |<a_i, a_j>|, at most 1
    # and reached by the pair (psi, -psi) of an alphabet closed under negation
    print("delta_2(phi*psi): 1 (exact: psi and -psi are both columns)")
    if args.dump_phi:
        with open(args.dump_phi, "w", encoding="ascii") as fh:
            fh.write(phi_to_text(phi))
        print(f"phi written to {args.dump_phi}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; a bad config or input prints one line and returns 2."""
    args = _build_parser().parse_args(argv)
    command = _cmd_simulate if args.command == "simulate" else _cmd_analyze
    try:
        return command(args)
    except (CsmimoError, ValueError, OSError) as exc:
        print(f"csmimo: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
