"""Run one benchmark workload and print its metrics as a JSON last line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_1d --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` runs the workload twice with one measured pass each, first
untraced and then with every layer wrapper installed, and prints the
per-layer metrics of the second run plus ``trace.overhead_ratio``, the
ratio of the two timed phases.  README.md in this directory describes the
workloads and every metric.

The program under test is imported from ``src/`` of the checkout this
file sits in, never from anywhere else; without it the run exits with a
non-zero code and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Largest share of the traced timed phase that may fall outside every
#: wrapped layer (the benchmark's own loops and checks).
UNATTRIBUTED_TOLERANCE = 0.05

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "build_records_per_s": "1/s",
    "sampled_records_per_s": "1/s",
    "queries_per_s": "1/s",
    "sim_records_per_s": "1/s",
    "sim_build_s": "s",
    "tta_p50_sim_s": "s",
    "tta_p99_sim_s": "s",
    "space_amp": "ratio",
}


def _import_program():
    """Make ``src/`` of this checkout importable, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_1d", "view_churn", "serve_closed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the read passes are measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the same code on small inputs")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    from ledger import Ledger
    from speed import SpeedProbe
    from workloads import LAYER_METRICS, WORKLOADS, peak_rss_mb

    workload = WORKLOADS[args.workload]
    problems: list[str] = []
    if args.trace == 0:
        with SpeedProbe() as probe:
            out = workload(args.seed, args.seconds, args.size, probe=probe)
        attempted, failed = out.attempted, out.failed
        problems += out.problems
        values = dict(out.metrics, setup_s=out.setup_s, peak_rss_mb=peak_rss_mb())
        units = END_TO_END_UNITS
    else:
        with SpeedProbe() as probe:
            plain = workload(args.seed, args.seconds, args.size, passes=1,
                             probe=probe)
        ledger = Ledger()
        with SpeedProbe() as probe:
            probe.on_busy = ledger.exclude
            traced = workload(args.seed, args.seconds, args.size,
                              ledger=ledger, passes=1, probe=probe)
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        problems += plain.problems + traced.problems
        values = dict(traced.layers,
                      **{"trace.overhead_ratio": traced.timed_s / plain.timed_s})
        share = values["trace.unattributed_share"]
        if not 0 <= share <= UNATTRIBUTED_TOLERANCE:
            problems.append(
                f"layer self times leave {share:.1%} of the traced timed phase "
                f"unattributed (tolerance {UNATTRIBUTED_TOLERANCE:.0%})")
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}

    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    for name in sorted(units):
        print(f"{name:45s} {values[name]:>16.6g} {units[name]}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
