#!/usr/bin/env python
"""Reproduce a full paper figure from the command line and check it.

Runs any of the ten evaluation figures (Figures 7-16) at quick or paper
scale, prints the series table, the ASCII chart and the shape-check
verdicts, and exits 1 when any shape check fails.

Usage::

    python examples/energy_sweep.py fig09            # quick scale
    python examples/energy_sweep.py fig16 --full     # paper scale (slow!)
    python examples/energy_sweep.py fig09 --seeds 1,2 --workers 4 --store figures.sqlite
    python examples/energy_sweep.py --list

``--workers N`` fans the figure's grid out over a process pool and
``--store`` persists every run (a directory for the JSON record layout,
a ``.sqlite`` path for the columnar store), so re-rendering a figure
(or another figure over the same scenarios, e.g. Figures 7/8/9) costs
nothing — both are provided by the campaign engine
(``repro.experiments.campaign``; see docs/campaigns.md).
"""

import argparse
import sys

from repro.experiments.figures import FIGURES


def _seeds(raw: str):
    try:
        return tuple(int(s) for s in raw.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {raw!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Reproduce one paper figure and check its shape.",
        allow_abbrev=False,  # a misspelled --worker must not pass as --workers
    )
    parser.add_argument("fig_id", nargs="?", choices=sorted(FIGURES))
    parser.add_argument(
        "--list", action="store_true", help="list figure ids and exit"
    )
    parser.add_argument(
        "--full", action="store_true", help="paper scale (default: quick)"
    )
    parser.add_argument(
        "--seeds", type=_seeds, default=(1, 2, 3), metavar="S1,S2,...",
        help="seed replications per cell (default: 1,2,3)",
    )
    parser.add_argument("--workers", type=int, default=1, help="pool size")
    parser.add_argument(
        "--store", default=None, metavar="SPEC",
        help="result store: a directory, a *.sqlite path, or json:/sqlite:",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list or args.fig_id is None:
        for fid, fig in sorted(FIGURES.items()):
            print(f"{fid}: {fig.title}")
        if args.fig_id is None and not args.list:
            print()
            parser.print_usage()
        return 0

    fig = FIGURES[args.fig_id]
    print(f"{fig.title} — {'paper' if args.full else 'quick'} scale, "
          f"seeds={','.join(map(str, args.seeds))}")
    result = fig.run(
        quick=not args.full, seeds=args.seeds, workers=args.workers,
        store=args.store,
    )
    print()
    print(fig.report(result))
    return 0 if all(fig.check(result).values()) else 1


if __name__ == "__main__":
    sys.exit(main())
