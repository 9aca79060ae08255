"""The three mcg benchmark workloads and the pass loop that times them.

Every pass starts from a fresh import of ``mcg``: the package's modules are
dropped from ``sys.modules`` and imported again, so table caches and any
other module state start cold, as they do in every ``mcg`` process.  The
fresh import plus ``surface.build`` of the workload's surfaces is one
``setup_s`` sample.  The timed phase of a pass calls only the program;
answers are checked after it against ground truth the benchmark holds, and
every failed check is counted, never raised.

Workloads (the names are referred to by later changes):

certify-sweep
    ``certify_thm9`` and ``certify_thm10`` on (1,2)..(1,10) and (2,2); each
    certificate goes ``to_json`` -> ``json.loads`` ->
    ``certificate_from_dict`` -> ``verify``, as a ``mcg verify`` user does.
    Chosen because the certify layer does nearly all the work here:
    vocabulary rebuilds, ``words.compose``, ``power_mc`` and the
    meet-in-the-middle search at (2,2).  Memoized search, precomputed +-
    steps and incremental fingerprints (ROADMAP item 4) can only show here.
    No surface repeats within a pass and each pass starts cold, so a cache
    across identical calls earns nothing.
suite-grid
    ``catalog.validate`` on (1,2), (1,3), (2,2), (1,12), (1,16), (7,2),
    (10,2): 1,039 relation items, every one must pass.  Chosen because it
    runs catalog construction and exact equality at rank up to 21 with no
    search and no CLI: every ``equal`` call returns true and reaches
    ``inner_witness``.  A certify-only optimisation must read "no change"
    here; table construction, canonical forms and ``inner_witness`` show.
query-mix
    A seeded session of CLI commands through ``cli.main(argv)`` in one
    process, 200 on each of (1,2), (1,4), (2,2), (3,2) per pass (see
    ``querygen``).  Chosen because it is many small independent requests
    and uses ``equal`` differently from suite-grid: the homology filter
    answers a quarter of the commands and ``inner_witness`` 55%, and the
    per-command vocabulary rebuild is a large share of the time.

Left out: surfaces with g >= 2 and p >= 3, where ``_tables.curve_rotation``
raises ``NotImplementedError`` (ROADMAP open item 1), and ``certify_thm9``
on (3,2), whose search does not finish (ROADMAP open item 4).  Adding
either is its own benchmark change once that item lands.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter
from types import ModuleType

import querygen
from refclock import Clock
from tracer import COUNTS, SPAN_NAMES, TARGETS, Tracer

# set-up samples taken before the first pass, on top of one per pass
SETUP_REPEATS = 8
MIN_PASSES = 3


def pass_count(workload, seconds: float) -> int:
    """Passes that fill ``seconds`` at the reference speed, at least three.

    The count depends on the workload and ``--seconds`` only, never on how
    fast the host or the program is, so a seed always runs the same inputs.
    """
    return max(MIN_PASSES, round(seconds / workload.pass_s))


def fresh_import() -> dict[str, ModuleType]:
    """Drop every ``mcg`` module and import the package and its CLI anew."""
    for name in [n for n in sys.modules if n == "mcg" or n.startswith("mcg.")]:
        del sys.modules[name]
    importlib.import_module("mcg.cli")
    return {m: sys.modules[f"mcg.{m}"] for m in TARGETS}


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failures."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures[:20 - len(self.failures)])


@dataclass
class Pass:
    """What one timed pass did: clock indices of its calls, and answers.

    ``groups`` names subsets of the calls: ``cert`` and ``verify`` on
    certify-sweep, ``thm9 g<g>p<p>`` for each certify_thm9 call, and
    ``cli`` for the commands of query-mix.
    """

    setup: int
    requests: list[int]
    outputs: list
    window: tuple[float, float]
    groups: dict[str, list[int]] = field(default_factory=dict)


def _holds(expectation, *args) -> bool:
    """An expectation on a malformed answer fails instead of raising."""
    try:
        return bool(expectation(*args))
    except (KeyError, TypeError, AttributeError, ValueError):
        return False


def _shuffled(items, seed) -> list:
    out = list(items)
    random.Random(seed).shuffle(out)
    return out


# ---------------------------------------------------------------------------
# certify-sweep


class CertifySweep:
    name = "certify-sweep"
    pass_s = 7.3   # one pass at the reference speed
    surfaces = tuple((1, p) for p in range(2, 11)) + ((2, 2),)

    def inputs(self, seed: str) -> list[tuple[int, int]]:
        return _shuffled(self.surfaces, seed)

    def run(self, clock, mods, models, order):
        """(outputs, request calls, groups) of one sweep."""
        certify = mods["certify"]

        def round_trip(cert):
            text = cert.to_json()
            return certify.verify(certify.certificate_from_dict(json.loads(text)))

        outputs, requests = [], []
        groups: dict[str, list[int]] = {"cert": [], "verify": []}
        for g, p in order:
            model = models[(g, p)]
            for kind, fn in (("theorem-9", certify.certify_thm9),
                             ("theorem-10", certify.certify_thm10)):
                cert, err, k = clock.call(fn, model)
                requests.append(k)
                groups["cert"].append(k)
                if kind == "theorem-9":
                    groups[f"thm9 g{g}p{p}"] = [k]
                ok, verr = None, err
                if cert is not None:
                    ok, verr, k = clock.call(round_trip, cert)
                    requests.append(k)
                    groups["verify"].append(k)
                outputs.append(((g, p), kind, cert, ok, verr))
        return outputs, requests, groups

    @staticmethod
    def answers(outputs) -> list:
        return [[cert.to_json() if cert else err, ok]
                for _, _, cert, ok, err in outputs]

    def check(self, outputs) -> Tally:
        tally = Tally()
        for (g, p), kind, cert, ok, verr in outputs:
            where = f"{kind} ({g},{p})"
            tally.check(
                cert is not None and _holds(self.expected, cert, kind, g, p),
                f"{where}: certificate wrong or missing ({verr})")
            tally.check(ok is True, f"{where}: verify after JSON round trip "
                        f"gave {ok!r} ({verr})")
        return tally

    @staticmethod
    def expected(cert, kind: str, g: int, p: int) -> bool:
        """Ground truth the benchmark knows for each certificate."""
        if not (cert.valid and cert.kind == kind
                and cert.surface == {"g": g, "p": p}):
            return False
        steps = cert.transcript
        if kind == "theorem-10":
            return (cert.generators == ["B", "R", "SH1p", "T"]
                    and [s["op"] for s in steps] == ["sign", "equal", "equal"])
        required = ["B"] + [f"A{i}" for i in range(1, 2 * g + 1)] \
            + [f"E{j}" for j in range(p)]
        kernel = [s["inputs"] for s in steps if s["op"] == "kernel-witness"]
        sym = [s for s in steps if s["op"] == "sym_gen_check"]
        return (cert.generators == ["B", "SH1p", "T"]
                and [k["target"] for k in kernel] == required
                and all(k.get("witness") for k in kernel)
                and len(sym) == 1 and sym[0]["order"] == math.factorial(p))


# ---------------------------------------------------------------------------
# suite-grid

# Relation-suite items per surface; every one must pass.
SUITE_ITEMS = {(1, 2): 40, (1, 3): 57, (2, 2): 55, (1, 12): 165,
               (1, 16): 213, (7, 2): 190, (10, 2): 319}


class SuiteGrid:
    name = "suite-grid"
    pass_s = 3.9
    surfaces = tuple(SUITE_ITEMS)

    def inputs(self, seed: str) -> list[tuple[int, int]]:
        return _shuffled(self.surfaces, seed)

    def run(self, clock, mods, models, order):
        validate = mods["catalog"].validate
        outputs, requests = [], []
        for g, p in order:
            report, err, k = clock.call(validate, models[(g, p)])
            requests.append(k)
            outputs.append(((g, p), report, err))
        return outputs, requests, {}

    @staticmethod
    def answers(outputs) -> list:
        return [report.as_dict() if report else err
                for _, report, err in outputs]

    def check(self, outputs, expected_items=SUITE_ITEMS) -> Tally:
        tally = Tally()
        for (g, p), report, err in outputs:
            want = expected_items[(g, p)]
            items = report.items if report is not None else ()
            for item in items:
                tally.check(item.passed, f"suite ({g},{p}): {item.name} "
                            f"failed {item.detail}")
            for _ in range(abs(want - len(items))):
                tally.check(False, f"suite ({g},{p}): {len(items)} items, "
                            f"expected {want} ({err})")
        return tally


# ---------------------------------------------------------------------------
# query-mix


class QueryMix:
    name = "query-mix"
    surfaces = querygen.SURFACES
    per_surface = 200
    pass_s = 7.6

    def inputs(self, seed: str) -> list[querygen.Command]:
        return querygen.generate(seed, self.per_surface)

    def run(self, clock, mods, models, commands):
        main = mods["cli"].main
        outputs, requests = [], []
        for cmd in commands:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code, exc, k = clock.call(main, list(cmd.argv))
            requests.append(k)
            outputs.append((cmd, code, out.getvalue(), exc or err.getvalue()))
        return outputs, requests, {"cli": requests}

    @staticmethod
    def answers(outputs) -> list:
        return [[code, text] for _, code, text, _ in outputs]

    def check(self, outputs) -> Tally:
        tally = Tally()
        for cmd, code, text, err in outputs:
            where = " ".join(cmd.argv)
            ok = code == cmd.expect_code and _holds(self.expected, cmd, text)
            tally.check(ok, f"{where}: exit {code}, expected "
                        f"{cmd.expect_code} {err.strip()}")
        return tally

    @staticmethod
    def expected(cmd: querygen.Command, text: str) -> bool:
        """The report agrees with how the command was built."""
        report = json.loads(text)
        if cmd.kind.startswith("eq"):
            return report.get("equal") is (cmd.expect_code == querygen.EXIT_OK)
        if cmd.kind == "eval":
            return report["peripheral"]["sign"] == cmd.expect_sign
        return report.get("curve") == cmd.argv[-1] and bool(report.get("image"))


WORKLOADS = {w.name: w for w in (CertifySweep(), SuiteGrid(), QueryMix())}


# ---------------------------------------------------------------------------
# the pass loop


def _setup(workload):
    """Fresh import plus surface.build of the workload's surfaces."""
    mods = fresh_import()
    return mods, {gp: mods["surface"].build(*gp) for gp in workload.surfaces}


def digest(workload, done: Pass) -> str:
    """Hash of every answer of a pass, to compare traced with untraced."""
    text = json.dumps(workload.answers(done.outputs))
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(workload, clock, inputs, tracer=None) -> Pass:
    """Set up from a fresh import, then run the workload on ``inputs``."""
    gc.collect()
    out, err, setup = clock.call(_setup, workload)
    if err is not None:
        raise RuntimeError(f"set-up failed: {err}")
    mods, models = out
    if tracer is not None:
        tracer.install(mods)
        clock.on_sample = tracer.exclude
    gc.collect()
    t0 = perf_counter()
    try:
        outputs, requests, groups = workload.run(clock, mods, models, inputs)
    finally:
        if tracer is not None:
            clock.on_sample = None
            tracer.uninstall()
    return Pass(setup, requests, outputs, (t0, perf_counter()), groups)


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest percentile with >= 10 samples above."""
    xs = sorted(values)
    k = max(len(xs) - 11, 0)
    return 100.0 * (k + 1) / len(xs), xs[k]


def run(name: str, seed: int, seconds: float, trace: bool,
        out_dir: str) -> tuple[dict, Tally, list[str]]:
    """Run one workload; returns (metrics, tally, human-readable notes)."""
    workload = WORKLOADS[name]
    tally = Tally()
    passes: list[Pass] = []
    traced: list[Pass] = []
    summaries: list[tuple[dict, tuple[float, float]]] = []
    with Clock() as clock:
        setups = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            setups.append(clock.call(_setup, workload)[2])
        for i in range(pass_count(workload, seconds)):
            inputs = workload.inputs(f"{seed}:{i}")
            plain = run_pass(workload, clock, inputs)
            passes.append(plain)
            plain_tally = workload.check(plain.outputs)
            tally.merge(plain_tally)
            if trace:
                tracer = Tracer()
                got = run_pass(workload, clock, inputs, tracer)
                traced.append(got)
                got_tally = workload.check(got.outputs)
                tally.merge(got_tally)
                tally.check(digest(workload, got) == digest(workload, plain)
                            and (got_tally.attempted, got_tally.failed)
                            == (plain_tally.attempted, plain_tally.failed),
                            f"pass {i}: traced answers differ from untraced")
                summaries.append((tracer.summary(), got.window))
                got.outputs = []
                if i == 0:
                    tracer.write(os.path.join(
                        out_dir, f"{name}-seed{seed}.spans.json"))
            plain.outputs = []

    med = statistics.median

    def total(calls: list[int]) -> float:
        return sum((clock.scaled(k) for k in calls), 0.0)

    setups += [p.setup for p in passes + traced]
    run_s = [total(p.requests) for p in passes]
    raw_s = [sum(clock.raw(k) for k in p.requests) for p in passes]
    notes = [f"{name}: seed {seed}, {len(passes)} passes, "
             f"{len(setups)} set-up samples, median run {med(raw_s):.3f} s "
             f"as measured, {med(run_s):.3f} s at reference speed"]
    if not trace:
        metrics = {
            "setup_s": (med(clock.scaled(k) for k in setups), "s"),
            "run_s": (med(run_s), "s"),
            "peak_rss_mib": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        return metrics, tally, notes

    first = summaries[0][0]
    metrics = {}
    for span in SPAN_NAMES:
        metrics[f"{span}.calls"] = (first[f"{span}.calls"], "count")
        metrics[f"{span}.self_s"] = (
            med(s[f"{span}.self_s"] * clock.factor(*w) for s, w in summaries), "s")
    for key in COUNTS:
        metrics[key] = (first[key], "count")
    calls = first["catalog.equal.calls"]
    metrics["catalog.equal.exact_ratio"] = (
        first["catalog.equal.exact"] / calls if calls else 0.0, "ratio")
    notes.append(f"catalog.equal.exact_ratio = {first['catalog.equal.exact']}"
                 f"/{calls} equal calls in pass 0")
    # untraced times of single layers, from the plain passes of this run
    metrics["certify.cert_s"] = (
        med(total(p.groups.get("cert", [])) for p in passes), "s")
    metrics["certify.verify_s"] = (
        med(total(p.groups.get("verify", [])) for p in passes), "s")
    for g, p in CertifySweep.surfaces:
        key = f"thm9 g{g}p{p}"
        metrics[f"certify.thm9_s.g{g}p{p}"] = (
            med(total(q.groups.get(key, [])) for q in passes), "s")
    commands = [clock.scaled(k) for p in passes for k in p.groups.get("cli", [])]
    p50 = tail_ms = 0.0
    if commands:
        pct, tail_s = tail(commands)
        p50, tail_ms = med(commands) * 1000, tail_s * 1000
        notes.append(f"cli.main.tail_ms is p{pct:.2f} of {len(commands)} commands")
    metrics["cli.main.p50_ms"] = (p50, "ms")
    metrics["cli.main.tail_ms"] = (tail_ms, "ms")
    metrics["trace.overhead_s"] = (
        med(total(t.requests) - total(p.requests)
            for t, p in zip(traced, passes)), "s")
    return metrics, tally, notes
