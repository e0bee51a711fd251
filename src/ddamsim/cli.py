"""Command-line front end: feasibility queries and canned experiments."""

from __future__ import annotations

import argparse
import sys

from .config import SystemConfig, load_config
from .errors import ContractViolationError
from .experiments import list_experiments, run_experiment
from .zf import zf_feasibility


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddamsim",
        description="Delay-Doppler alignment link simulations and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    feas = sub.add_parser(
        "feasibility",
        help="classify zero-forcing inter-path nulling for given dimensions",
    )
    feas.add_argument("--tx-antennas", type=int, default=None, metavar="MT")
    feas.add_argument("--rx-antennas", type=int, default=None, metavar="MR")
    feas.add_argument("--streams", type=int, default=None, metavar="NS")
    feas.add_argument("--paths", type=int, default=None, metavar="L")
    feas.add_argument(
        "--config", default=None, metavar="FILE", help="JSON system config for defaults"
    )

    run = sub.add_parser("run", help="run a registered experiment")
    run.add_argument("experiment", help="experiment name, see list-experiments")
    run.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    run.add_argument(
        "--trials", type=int, default=None, help="trial count (default per experiment)"
    )
    run.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="output file; .json for JSON, anything else CSV (default: CSV to stdout)",
    )
    run.add_argument(
        "--config", default=None, metavar="FILE", help="JSON system config file"
    )
    run.add_argument(
        "--workers", type=int, default=None, help="process count for parallel trials"
    )

    sub.add_parser("list-experiments", help="print the experiment registry")
    return parser


def _cmd_feasibility(args: argparse.Namespace) -> int:
    config = load_config(args.config) if args.config else SystemConfig()
    num_tx = args.tx_antennas if args.tx_antennas is not None else config.num_tx_antennas
    num_rx = args.rx_antennas if args.rx_antennas is not None else config.num_rx_antennas
    streams = args.streams if args.streams is not None else config.num_streams
    paths = args.paths if args.paths is not None else config.num_paths
    result = zf_feasibility(num_tx, num_rx, streams, paths)
    print(
        f"tx={num_tx} rx={num_rx} streams={streams} paths={paths}: "
        f"{result.verdict.value}"
    )
    print(f"bilinear equations: {result.num_equations}")
    print(f"free variables:     {result.num_variables}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config) if args.config else None
    if args.seed < 0:
        raise ContractViolationError("--seed must be non-negative")
    run = run_experiment(
        args.experiment,
        seed=args.seed,
        num_trials=args.trials,
        config=config,
        workers=args.workers,
    )
    if run.num_failures:
        print(
            f"warning: {run.num_failures}/{run.num_trials} trials failed",
            file=sys.stderr,
        )
        for trial, message in run.failures:
            print(f"  trial {trial}: {message}", file=sys.stderr)
    if args.out:
        run.save(args.out)
        print(f"wrote {len(run.rows)} rows to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(run.to_csv())
    return 0 if run.num_failures == 0 else 1


def _cmd_list(_: argparse.Namespace) -> int:
    for name, description in list_experiments():
        print(f"{name}: {description}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "feasibility": _cmd_feasibility,
        "run": _cmd_run,
        "list-experiments": _cmd_list,
    }
    try:
        return handlers[args.command](args)
    except (ContractViolationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
