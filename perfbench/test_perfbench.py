"""Tests of the benchmark's own parts: generator, checks, tracer, entry point.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

import querygen
import workloads
from refclock import Clock
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.fixture
def mods():
    """A fresh import of mcg; the modules other tests hold are put back."""
    saved = {n: m for n, m in sys.modules.items()
             if n == "mcg" or n.startswith("mcg.")}
    try:
        yield workloads.fresh_import()
    finally:
        for n in [n for n in sys.modules if n == "mcg" or n.startswith("mcg.")]:
            del sys.modules[n]
        sys.modules.update(saved)


def _run(workload, mods, inputs, tracer=None):
    clock = Clock()
    if tracer is not None:
        tracer.install(mods)
    try:
        models = {gp: mods["surface"].build(*gp) for gp in workload.surfaces}
        outputs, _, _ = workload.run(clock, mods, models, inputs)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return outputs


def test_same_seed_same_commands():
    assert querygen.generate(7, 20) == querygen.generate(7, 20)
    assert querygen.generate(7, 20) != querygen.generate(8, 20)


def test_session_mix_per_surface():
    commands = querygen.generate(3, 20)
    assert len(commands) == 20 * len(querygen.SURFACES)
    for g, p in querygen.SURFACES:
        kinds = [c.kind for c in commands
                 if c.argv[1:5] == ("--g", str(g), "--p", str(p))]
        assert {k: kinds.count(k) for k in set(kinds)} == dict(querygen.MIX)


@pytest.mark.parametrize("gp", querygen.SURFACES)
def test_naming_rule_matches_vocabulary(mods, gp):
    model = mods["surface"].build(*gp)
    assert set(querygen.generator_names(*gp)) == \
        set(mods["catalog"].vocabulary(model))
    for name in querygen.curve_names(*gp):
        mods["surface"].curve(model, name)


def test_query_answers_checked_and_wrong_expectation_counted(mods):
    wl = workloads.WORKLOADS["query-mix"]
    commands = [c for c in querygen.generate(11, 20)
                if c.argv[1:5] == ("--g", "1", "--p", "2")]
    outputs = _run(wl, mods, commands)
    assert wl.check(outputs).failed == 0
    # flip the expected exit code of one command: exactly one failure
    cmd = outputs[0][0]
    wrong = querygen.Command(cmd.kind, cmd.argv, 3 - cmd.expect_code,
                             cmd.expect_sign)
    tally = wl.check([(wrong,) + outputs[0][1:]] + outputs[1:])
    assert (tally.attempted, tally.failed) == (len(outputs), 1)


def test_suite_wrong_item_count_counted(mods):
    wl = workloads.WORKLOADS["suite-grid"]
    outputs = _run(wl, mods, [(1, 2)])
    assert wl.check(outputs).failed == 0
    tally = wl.check(outputs, expected_items={(1, 2): 42})
    assert tally.failed == 2


def test_certificate_wrong_surface_counted(mods):
    wl = workloads.WORKLOADS["certify-sweep"]
    outputs = _run(wl, mods, [(1, 2)])
    assert wl.check(outputs).failed == 0
    (_, kind, cert, ok, err) = outputs[0]
    assert not wl.expected(cert, kind, 1, 3)
    tally = wl.check([((1, 3), kind, cert, ok, err)])
    assert (tally.attempted, tally.failed) == (2, 1)


def test_traced_run_same_answers_and_counts(mods):
    wl = workloads.WORKLOADS["query-mix"]
    commands = querygen.generate(5, 20)[:24]
    plain = _run(wl, mods, commands)
    tracer = Tracer()
    traced = _run(wl, mods, commands, tracer)
    assert wl.answers(traced) == wl.answers(plain)
    assert wl.check(traced).failed == wl.check(plain).failed == 0
    summary = tracer.summary()
    assert summary["cli.main.calls"] == len(commands)
    assert 0 < summary["catalog.equal.exact"] <= summary["catalog.equal.calls"]
    assert summary["words.compose.calls"] > 0
    assert summary["words.compose.letters"] > 0
    # wrappers are gone again and nothing is left patched
    assert mods["catalog"].compose is mods["words"].compose
    assert not hasattr(mods["words"].compose, "__wrapped__")


def test_tracer_wraps_every_binding(mods):
    tracer = Tracer()
    tracer.install(mods)
    try:
        for mod in ("words", "catalog", "certify", "_tables"):
            assert hasattr(mods[mod].compose, "__wrapped__"), mod
        assert hasattr(mods["certify"].equal, "__wrapped__")
        assert hasattr(mods["cli"].vocabulary, "__wrapped__")
    finally:
        tracer.uninstall()


def test_self_time_excludes_children():
    tracer = Tracer()
    i, j = tracer._index["catalog.equal"], tracer._index["words.inner_witness"]
    for name, start, end, parent in ((i, 0.0, 1.0, -1), (j, 0.2, 0.5, 0),
                                     (j, 0.6, 0.7, 0)):
        tracer.name.append(name)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.paused.append(0.0)
    s = tracer.summary()
    assert s["catalog.equal.self_s"] == pytest.approx(0.6)
    assert s["words.inner_witness.self_s"] == pytest.approx(0.4)
    assert s["catalog.equal.exact"] == 1


def test_tail_keeps_ten_samples_above():
    pct, value = workloads.tail([float(x) for x in range(100)])
    assert value == 89.0 and pct == 90.0


def test_entry_point_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
