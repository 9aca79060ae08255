"""Time ``words.compose`` on two fixed conjugations; write BENCH_words.json.

    python3 bench/words_compose.py [--src DIR] [--label NAME]

Each case is ``compose(T, compose(E, T^-1))`` on the automorphisms of the
rotation ``T`` and a twist ``E`` of the catalog: ``T E1 T^-1`` at (10,2)
and ``T E15 T^-1`` at (1,16).  The time is the minimum over 20 runs
of ``time.perf_counter`` around the two calls.  ``--src`` names the
``src`` directory to import ``mcg`` from (default: the one of this
checkout), so another checkout's kernel can be timed with the same script.
The result is stored under ``--label`` in ``BENCH_words.json`` at the root
of this checkout; entries under other labels are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "BENCH_words.json")
REPEAT = 20
CASES = (("T E1 T^-1 (10,2)", 10, 2, "E1"), ("T E15 T^-1 (1,16)", 1, 16, "E15"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--label", default="current")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    from mcg.catalog import generator
    from mcg.surface import build
    from mcg.words import compose, inverse

    cases = {}
    for name, g, p, twist in CASES:
        model = build(g, p)
        T, E = generator(model, "T").aut, generator(model, twist).aut
        Ti = inverse(T)
        best = float("inf")
        for _ in range(REPEAT):
            start = time.perf_counter()
            out = compose(T, compose(E, Ti))
            best = min(best, time.perf_counter() - start)
        cases[name] = {"min_ms": round(best * 1e3, 3),
                       "letters": sum(map(len, out.fwd + out.bwd))}

    results = {}
    if os.path.exists(OUT):
        with open(OUT) as fh:
            results = json.load(fh)
    results[args.label] = {
        "repeat": REPEAT,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "cases": cases,
    }
    with open(OUT, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps({args.label: cases}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
