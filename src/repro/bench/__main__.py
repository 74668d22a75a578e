"""CLI experiment runner: ``python -m repro.bench [fig04 fig05 ... | all]``.

Runs the requested experiments at their default (scaled-down) sizes and
prints the paper-figure tables.  ``--tuples N`` overrides dataset sizes
where the experiment accepts one.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from .experiments import ALL_EXPERIMENTS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["all"],
        help="experiment ids (fig04..fig15, ablation_*, extra_*), or 'all'",
    )
    parser.add_argument(
        "--tuples", type=int, default=None, help="override dataset size"
    )
    parser.add_argument(
        "--queries", type=int, default=None, help="override queries per point"
    )
    parser.add_argument(
        "--metric",
        default="io_cost",
        help="metric to tabulate (io_cost, pages_read, wall_ms, ...)",
    )
    args = parser.parse_args(argv)

    wanted = args.experiments
    if wanted in (["all"], []):
        wanted = list(ALL_EXPERIMENTS)
    unknown = [name for name in wanted if name not in ALL_EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiments: {unknown}; known: {sorted(ALL_EXPERIMENTS)}"
        )

    for name in wanted:
        fn = ALL_EXPERIMENTS[name]
        kwargs = {}
        signature = inspect.signature(fn)
        if args.tuples is not None and "num_tuples" in signature.parameters:
            kwargs["num_tuples"] = args.tuples
        if args.queries is not None and "queries_per_point" in signature.parameters:
            kwargs["queries_per_point"] = args.queries
        result = fn(**kwargs)
        metric = args.metric if name != "fig11" else "space_bytes"
        print(result.format_table(metric))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
