"""A tiny-size pass of every workload through the benchmark's entry point.

Checks that each run prints every metric named in BENCHMARK.json with its
unit as the last line, and that the output checks run: a wrong reference
fails every op, and an unquiesced set-up fails the run before any op.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import run, workloads
from perfbench.workloads import TINY

ROOT = run.ROOT
with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    BENCHMARK = json.load(handle)


def invoke(capsys, workload, trace, seed=7):
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace)],
        sizes=TINY,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines


@pytest.fixture(autouse=True)
def spans_to_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    code, lines = invoke(capsys, workload, trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= max(
        run.MIN_OPS, workloads.WORKLOADS[workload].timed_ops or 0
    )
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {
        name: (entry["unit"]) for name, entry in result["metrics"].items()
    } == {entry["name"]: entry["unit"] for entry in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert any(line.startswith("op_fail_ratio 0/") for line in lines)
    if trace:
        assert any(line.startswith("  unattributed") for line in lines)


def test_stream_reference_is_the_serial_engine(capsys, monkeypatch):
    calls = []
    explore = workloads.FederationH50.explore

    def spy(self, built, corpus, stream):
        calls.append(stream)
        return explore(self, built, corpus, stream)

    monkeypatch.setattr(workloads.FederationH50, "explore", spy)
    code, lines = invoke(capsys, "stream-h50", 0)
    assert code == 0 and json.loads(lines[-1])["failed"] == 0
    # The serial reference runs once, after the measured stream ops.
    assert calls[-1] is False and set(calls[:-1]) == {True}


def test_timing_covers_only_the_first_timed_ops():
    workload = workloads.LeakFig2(TINY)
    loop = run.OpLoop(workload, None, None)
    count = workload.timed_ops
    loop.walls = [float(i + 1) for i in range(count)] + [100.0, 100.0]
    loop.outcomes = [workloads.Outcome(8, "d", (1,))] * len(loop.walls)
    loop.problems = [""] * len(loop.walls)
    walls, ok, executions = loop.timed()
    assert walls == ok == [float(i + 1) for i in range(count)]
    assert executions == 8 * count


def test_a_digest_mismatch_fails_the_op(capsys, monkeypatch):
    wrong = workloads.Outcome(0, "0" * 64, (1,))
    monkeypatch.setattr(workloads.LeakFig2, "reference", lambda self, *args: wrong)
    code, lines = invoke(capsys, "leak-fig2", 0)
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_an_unquiesced_setup_fails_the_run_untimed(capsys, monkeypatch):
    build = workloads.FederationH50.build

    def unconverged(self, seed):
        built = build(self, seed)
        built.converge = lambda run_until=None: built.host.run_until(0.0)
        return built

    monkeypatch.setattr(workloads.FederationH50, "build", unconverged)
    code, lines = invoke(capsys, "federation-h50", 0)
    assert code == 1
    assert not any(line.startswith("{") for line in lines)


def test_without_the_program_sources_the_run_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "leak-fig2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
