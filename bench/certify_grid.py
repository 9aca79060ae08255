"""Time ``certify_thm9`` and ``verify`` per surface; write BENCH_certify.json.

    python3 bench/certify_grid.py [--side LABEL=SRC ...]

For each surface (1,2)..(1,10), (2,2), (2,3), (3,2)..(8,2), (10,2),
(12,2), (16,2), (3,3), (4,4) and (6,6) two times are taken: ``build``
plus ``certify_thm9``, and ``verify`` of that certificate after a JSON
round trip (``to_json``, ``json.loads``, ``certificate_from_dict``).
Each timing runs in a new Python process, so ``mcg`` is imported fresh
and its table caches are cold; each time is the minimum over 5
``time.perf_counter`` samples.  A surface whose
certificate is not valid or does not verify is recorded as such.  A child
process that runs longer than 30 s is stopped, and its surface is
recorded as ``"timed_out": true`` for that side and not sampled again, so
a checkout whose ``certify_thm9`` searches without end can be timed too.

Each ``--side LABEL=SRC`` names a ``src`` directory to import ``mcg``
from (default: ``current`` = the one of this checkout).  Give two or more
to compare checkouts: the sides take turns within each surface's samples,
the order flipping every round, so drift of the machine during the run
falls on every side alike.  Each side's result is stored under its label
in ``BENCH_certify.json`` at the root of this checkout; entries under
other labels are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "BENCH_certify.json")
REPEAT = 5
TIMEOUT_S = 30
SURFACES = [(1, p) for p in range(2, 11)] + [(2, 2), (2, 3)] \
    + [(g, 2) for g in (3, 4, 5, 6, 7, 8, 10, 12, 16)] \
    + [(3, 3), (4, 4), (6, 6)]


# each timing runs in its own child process; argv[1] is the src directory
THM9 = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from mcg import certify
from mcg.surface import build
start = time.perf_counter()
cert = certify.certify_thm9(build(int(sys.argv[2]), int(sys.argv[3])))
print(json.dumps([time.perf_counter() - start, cert.valid]))
print(cert.to_json())
"""
VERIFY = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from mcg import certify
text = sys.stdin.read()
start = time.perf_counter()
ok = certify.verify(certify.certificate_from_dict(json.loads(text)))
print(json.dumps([time.perf_counter() - start, ok]))
"""


def _child(code: str, *args: str, stdin: str = "") -> str:
    return subprocess.run([sys.executable, "-c", code, *args], input=stdin,
                          check=True, capture_output=True, text=True,
                          timeout=TIMEOUT_S).stdout


def _sample(src: str, g: int, p: int) -> tuple[float, float, bool, bool]:
    """(certify_thm9 s, verify s, valid, verified), each from a cold start."""
    head, text = _child(THM9, src, str(g), str(p)).split("\n", 1)
    thm9_s, valid = json.loads(head)
    verify_s, ok = json.loads(_child(VERIFY, src, stdin=text))
    return thm9_s, verify_s, valid, ok


def _side(text: str) -> tuple[str, str]:
    label, sep, src = text.partition("=")
    if not (label and sep and src):
        raise argparse.ArgumentTypeError(f"expected LABEL=SRC, got {text!r}")
    return label, os.path.abspath(src)


def _surface(sides: list[tuple[str, str]], g: int, p: int) -> dict:
    """Every side's entry for one surface, sides alternating per sample."""
    samples = {label: [] for label, _ in sides}
    timed_out = set()
    for r in range(REPEAT):
        for label, src in sides if r % 2 == 0 else sides[::-1]:
            if label in timed_out:
                continue
            try:
                samples[label].append(_sample(src, g, p))
            except subprocess.TimeoutExpired:
                timed_out.add(label)
    out = {}
    for label, got in samples.items():
        if label in timed_out:
            out[label] = {"timed_out": True}
            continue
        out[label] = {
            "thm9_min_ms": round(min(s[0] for s in got) * 1e3, 3),
            "verify_min_ms": round(min(s[1] for s in got) * 1e3, 3),
            "valid": all(s[2] for s in got),
            "verified": all(s[3] for s in got),
            "timed_out": False,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--side", type=_side, action="append",
                        metavar="LABEL=SRC")
    args = parser.parse_args(argv)

    sides = args.side or [("current", os.path.join(ROOT, "src"))]
    if len({label for label, _ in sides}) != len(sides):
        parser.error("side labels must differ")
    surfaces = {label: {} for label, _ in sides}
    for g, p in SURFACES:
        for label, entry in _surface(sides, g, p).items():
            surfaces[label][f"({g},{p})"] = entry

    results = {}
    if os.path.exists(OUT):
        with open(OUT) as fh:
            results = json.load(fh)
    for label, _ in sides:
        results[label] = {
            "repeat": REPEAT,
            "timeout_s": TIMEOUT_S,
            "python": platform.python_version(),
            "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
            "surfaces": surfaces[label],
        }
    with open(OUT, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(surfaces))
    return 0


if __name__ == "__main__":
    sys.exit(main())
