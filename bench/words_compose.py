"""Time ``words.compose`` and ``catalog.equal`` on fixed conjugations.

    python3 bench/words_compose.py [--src DIR] [--label NAME]

Two cases are ``compose(T, compose(E, T^-1))`` on the automorphisms of the
rotation ``T`` and a twist ``E`` of the catalog: ``T E1 T^-1`` at (10,2)
and ``T E15 T^-1`` at (1,16).  The product's inverse table is read inside
the timed region, so a product that builds it on first read pays for the
same tables as one that builds it at once.  The other cases time
``equal`` of a ``compose_mc`` product and a class at (10,2): the relations
``T E1 T^-1 = E0`` and ``T E0 T^-1 = E1`` (T carries E_j to E_{j+1 mod p}),
whose two sides come out with identical tables, and ``RHO2^2 = 1``, whose
sides differ by an inner automorphism, so ``inner_witness`` solves for it.
Every table of the generators is built before timing.  Each time is the
minimum over 20 runs of ``time.perf_counter`` around the calls of the
case.  ``--src`` names the ``src`` directory to import ``mcg`` from
(default: the one of this checkout), so another checkout's kernel can be
timed with the same script.
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
# (name, g, p, left side as (generator, exponent +-1) factors, right side;
# None for the identity)
EQUAL_CASES = (
    ("T E1 T^-1 = E0 (10,2)", 10, 2, (("T", 1), ("E1", 1), ("T", -1)), "E0"),
    ("T E0 T^-1 = E1 (10,2)", 10, 2, (("T", 1), ("E0", 1), ("T", -1)), "E1"),
    ("RHO2^2 = 1 (10,2)", 10, 2, (("RHO2", 1), ("RHO2", 1)), None),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--label", default="current")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    from mcg.catalog import compose_mc, equal, generator, identity_mc, inverse_mc
    from mcg.surface import build
    from mcg.words import compose, inverse

    def built(model, name):
        F = generator(model, name)
        F.aut.bwd  # every table of the generator, before timing
        return F

    def best_of(fn):
        best = float("inf")
        for _ in range(REPEAT):
            start = time.perf_counter()
            out = fn()
            best = min(best, time.perf_counter() - start)
        return round(best * 1e3, 3), out

    cases = {}
    for name, g, p, twist in CASES:
        model = build(g, p)
        T, E = built(model, "T").aut, built(model, twist).aut
        Ti = inverse(T)

        def conjugation():
            out = compose(T, compose(E, Ti))
            out.bwd  # the inverse table too, inside the timed region
            return out

        ms, out = best_of(conjugation)
        cases[name] = {"min_ms": ms,
                       "letters": sum(map(len, out.fwd + out.bwd))}
    for name, g, p, factors, image in EQUAL_CASES:
        model = build(g, p)
        left = [built(model, n) if e == 1 else inverse_mc(built(model, n))
                for n, e in factors]
        right = built(model, image) if image else identity_mc(model)

        def product():  # right-nested, as the relation suite composes
            out = left[-1]
            for F in reversed(left[:-1]):
                out = compose_mc(F, out)
            return out

        ms, verdict = best_of(lambda: equal(product(), right))
        cases[name] = {"min_ms": ms, "equal": verdict}

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
