"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import io
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from itertools import islice

import pytest

import reference as ref
import run
import workloads
from tracer import LAYER_METRICS, SPAN_NAMES, Tracer, read_spans
from workloads import Op

# Cheap ops that touch every op kind and every traced module.
SMALL_OPS = {
    "recode": next(workloads.rounds("recode", 3)),
    "verify": [Op("tables", (1, 3)), Op("census", (-1,)), Op("check", ("ring", 5)),
               Op("check", ("digits", 5)), Op("check", ("expansion", 5)),
               Op("min_weight", (-1, 9)), Op("naf_sweep", (1, 7))],
    "enumerate": [Op("enumerate", (1, 30)), Op("enumerate", (-1, 57))],
}


@pytest.fixture(scope="module")
def program():
    return workloads.load_program(run.SRC)


@pytest.fixture(scope="module")
def reference():
    return workloads.Reference()


def _measure(program, reference, ops, tracer=None):
    return run.measure(program, reference, [ops], 0, 0, tracer=tracer)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_ops(workload):
    first = list(islice(workloads.rounds(workload, 11), 3))
    assert first == list(islice(workloads.rounds(workload, 11), 3))
    assert first != list(islice(workloads.rounds(workload, 12), 3))


def test_rounds_keep_the_mix():
    recode = next(workloads.rounds("recode", 5))
    assert sorted((op.kind, op.args[0]) for op in recode) == sorted(
        (k, b) for b in workloads.RECODE_BITS for k in ("gls", "tnaf"))
    bounds = sorted(op.args[1] for op in next(workloads.rounds("enumerate", 5)))
    assert len(bounds) == workloads.SMALL_BOUNDS_PER_ROUND + 1 and bounds[-1] == workloads.MAX_BOUND
    assert workloads.SMALL_BOUNDS[0] <= bounds[0] and bounds[-2] <= workloads.SMALL_BOUNDS[1]
    verify = next(workloads.rounds("verify", 5))
    assert len(verify) == 2 * (32 + 2 + 32 + 6) + 4


def test_reference_agrees_with_the_paper_and_the_program(program):
    for mu in workloads.MUS:
        counts = ref.norm_counts(mu, 38)
        assert (counts[20], counts[38]) == (94, 300)
        for j in range(1, 17):
            dset = program.digits.build_tnaf_digit_set(j, mu)
            assert ref.tnaf_digit_set(j, mu) == {tuple(d) for d in dset.digits}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_ops_pass(program, reference, workload):
    result = _measure(program, reference, SMALL_OPS[workload])
    assert all(result.ok), result.first_failure
    assert result.units > 0


def test_a_corrupted_digit_fails_the_check(program, reference):
    rng = random.Random(1)
    for op in SMALL_OPS["recode"]:
        out = workloads.prepare(program, reference, op)()
        i = rng.randrange(len(out.digits))
        d = out.digits[i]
        bad = out.digits[:i] + (type(d)(d.a + 1, d.b),) + out.digits[i + 1:]
        assert not workloads.check(reference, op, dataclasses.replace(out, digits=bad))[0]


def test_a_corrupted_recoder_raises_the_error_rate(program, reference, monkeypatch):
    rng = random.Random(2)
    original = program.expand.expand_tnaf

    def corrupted(a, mu, j):
        e = original(a, mu, j)
        i = rng.randrange(len(e.digits))
        d = e.digits[i]
        return dataclasses.replace(
            e, digits=e.digits[:i] + (type(d)(d.a + 1, d.b),) + e.digits[i + 1:])

    monkeypatch.setattr(program.expand, "expand_tnaf", corrupted)
    monkeypatch.setattr(program.expand, "check_expansion", lambda e: None)
    result = _measure(program, reference, SMALL_OPS["recode"])
    assert len(result.ops) == len(SMALL_OPS["recode"])
    assert [op.kind == "tnaf" for op in result.ops] == [not ok for ok in result.ok]


def test_one_altered_stdout_line_raises_the_error_rate(program, reference, monkeypatch):
    rng = random.Random(3)
    original = program.cli.main

    def altered(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = original(argv)
        lines = buf.getvalue().splitlines(keepends=True)
        i = rng.randrange(len(lines))
        lines[i] = lines[i].replace("1", "2", 1) if "1" in lines[i] else "#" + lines[i]
        sys.stdout.write("".join(lines))
        return rc

    monkeypatch.setattr(program.cli, "main", altered)
    ops = [op for w in ("verify", "enumerate") for op in SMALL_OPS[w]
           if op.kind in ("tables", "census", "check", "enumerate")]
    result = _measure(program, reference, ops)
    assert len(result.ops) == len(ops)
    assert not any(result.ok)


def _bindings(program) -> dict:
    out = {}
    for module in program.package_modules:
        for key, value in vars(module).items():
            out[(module.__name__, key)] = value
            if type(value) is dict:
                for k, v in value.items():
                    out[(module.__name__, key, k)] = v
    return out


def test_the_tracer_restores_every_patched_function(program):
    before = _bindings(program)
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(program):
            during = _bindings(program)
            raise RuntimeError("leave the block early")
    patched = {k for k in before if during[k] is not before[k]}
    assert ("tauadic.expand", "quotient_by_tau") in patched
    assert ("tauadic.expand", "gls_digit") in patched
    assert ("tauadic.checks", "_SUITE_FUNCS", "norm") in patched
    assert {k[0] + "." + k[1] for k in patched if len(k) == 2} >= {
        "tauadic." + name for name in SPAN_NAMES}
    after = _bindings(program)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_outputs_match(program, reference, workload, tmp_path):
    tracer = Tracer()
    with tracer.installed(program):
        traced = _measure(program, reference, SMALL_OPS[workload], tracer)
    plain = _measure(program, reference, SMALL_OPS[workload])
    assert traced.digests == plain.digests
    assert all(traced.ok)

    layers = tracer.metrics(traced.stdout_bytes)
    self_s = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert 0 < self_s <= traced.total
    assert traced.total - self_s < 0.05 * traced.total
    assert set(layers) == set(LAYER_METRICS)
    if workload == "verify":
        assert layers["expand.search.nodes"] > 0
        assert layers["checks.cases"] > 0
        assert layers["tables.fixture_text.bytes"] > 0

    path = tmp_path / "spans"
    tracer.write(path, {"workload": workload})
    header, spans = read_spans(path)
    assert header["spans"] == len(tracer) == len(spans["names"])
    assert list(spans["ends"]) == list(tracer.ends)


def test_without_sources_the_benchmark_fails(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "recode", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    fake = run.Run()
    fake.seconds, fake.kernel, fake.work, fake.ok = [1.0, 2.0], [1.0] * 4, [1, 1], [True] * 2
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end(fake, fake.seconds, [0.1]))
    traced = list(LAYER_METRICS) + list(run.trace_accounting(fake, fake, {}, 0))
    assert [m["name"] for m in spec["per_layer"]] == traced
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
