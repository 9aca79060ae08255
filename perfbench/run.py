"""Benchmark entry point for the mcg package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout, never from an installed copy; without it the run exits
with code 2 and prints no result.  Workloads are described in
``workloads``.  A run makes as many passes as fill ``--seconds`` at the
reference speed, and at least three; every pass starts from a fresh import.
All times are scaled to the reference speed (see ``refclock``).

The last line of standard output is one JSON object.  ``failed`` over
``attempted`` is the fail ratio: an exception, a wrong answer, an invalid
or unverifiable certificate, an exhausted budget and a failed suite item
each count as one failed operation, and ``correct`` is true when none
failed.  Exit code 0 means the run finished, whether or not it was correct.

With ``--trace 0`` the metrics are end to end:

* ``setup_s``: median time of a fresh import of ``mcg`` and ``mcg.cli`` plus
  ``surface.build`` of the workload's surfaces, with every cache cold, as
  each ``mcg`` process pays it (8 samples before the passes, 1 per pass);
* ``run_s``: median over passes of the summed time of the pass's calls;
* ``peak_rss_mib``: peak resident memory of the process.

With ``--trace 1`` each pass runs twice, plain and then with a span around
every layer function (see ``tracer``), and the metrics are per layer:
``<layer>.<function>.calls`` and ``.self_s``, the counts beside them,
``certify.cert_s`` and ``certify.verify_s`` (certificate producers and
checkers), ``certify.thm9_s.g<g>p<p>`` (cost against genus and punctures),
``cli.main.p50_ms`` and ``cli.main.tail_ms`` (per-command latency at the
median and at the highest percentile with ten commands above it), all
taken from the plain passes, and ``trace.overhead_s``, traced minus plain
``run_s``.  Metrics of a layer that a workload does not run read 0.  The
spans of the first traced pass are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mcg", "__init__.py")):
        print(f"no mcg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    mods = workloads.fresh_import()
    if not mods["cli"].__file__.startswith(SRC):
        print(f"mcg imported from {mods['cli'].__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    metrics, tally, notes = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        os.path.join(HERE, "out"))
    for note in notes + tally.failures:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
