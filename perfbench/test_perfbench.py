"""Self-tests of the benchmark.  Run: python3 -m pytest perfbench -q

They use smaller inputs than the benchmark runs, and perturb expected values
in memory only; the repository's data files are never touched.
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import lib
import run
import speed
import tracing
from workloads import WORKLOADS, CensusZ4, Constants, ExtendZ3

MODS = lib.load()


def small(name, tmp_path):
    if name == "census-z4":
        return CensusZ4(MODS, seed=5, ladders=((2, 5), (3, 3)))
    if name == "extend-z3":
        return ExtendZ3(MODS, seed=5, scratch=tmp_path, limit=60)
    return Constants(MODS, seed=5, ids=("lattice_cocyclic_limit", "lattice_corank2_limit"))


def perturb(name, monkeypatch):
    """Shift one expected value of the workload by a little."""
    if name == "constants":
        quoted, tol, kind = MODS.verify.QUOTED_CONSTANTS["lattice_corank2_limit"]
        monkeypatch.setitem(MODS.verify.QUOTED_CONSTANTS, "lattice_corank2_limit",
                            (quoted + 3 * tol, tol, kind))
        return
    n, p, e = (4, 2, 3) if name == "census-z4" else (3, 3, 1)
    series = MODS.catalog.subring_count_series

    def shifted(n2, p2, e2):
        return series(n2, p2, e2) + ((n2, p2, e2) == (n, p, e))

    monkeypatch.setattr(MODS.catalog, "subring_count_series", shifted)


@pytest.mark.parametrize("name", ["census-z4", "extend-z3", "constants"])
def test_perturbed_expectation_fails(name, tmp_path, monkeypatch):
    workload = small(name, tmp_path)
    clean = workload.run_pass()
    assert clean.checks.attempted > 0 and clean.checks.failed == 0, clean.checks.failures
    perturb(name, monkeypatch)
    result = workload.run_pass()
    assert result.checks.attempted == clean.checks.attempted
    assert result.checks.failed / result.checks.attempted > 0


def test_raising_check_counts_as_failed(tmp_path, monkeypatch):
    workload = small("census-z4", tmp_path)

    def broken(*args):
        raise ArithmeticError("boom")

    monkeypatch.setattr(MODS.catalog, "subring_count_series", broken)
    result = workload.run_pass()
    assert result.checks.failed == len(workload.cells)


def test_failing_run_exits_nonzero_without_timings(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "make_workload", lambda *args: small("constants", tmp_path))
    perturb("constants", monkeypatch)
    code = run.main(["--workload", "constants", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0 and result["metrics"] == {}


def traced(workload):
    tracer = tracing.Tracer("test")
    with tracer.installed(MODS):
        result = workload.run_pass(tracer)
    return tracing.layer_metrics(tracer, result.seconds, result.extra), result


@pytest.mark.parametrize("name", ["census-z4", "extend-z3", "constants"])
def test_deterministic_counts_repeat(name, tmp_path):
    """The first pass of a run and a later one count the same, so no pass
    profits from state a previous pass left behind."""
    workload = small(name, tmp_path)
    first, r1 = traced(workload)
    workload.run_pass()
    second, r2 = traced(workload)
    for key in ("enumeration.block_checks", "hnf.smith_per_matrix", "analytics.primes_visited",
                "analytics.sieve_limit_max", "analytics.sieve_builds",
                "hnf.products_in_span.calls", "counting.ledger_bytes"):
        assert first[key] == second[key], key
    assert r1.extra.get("enclosure_over_tol_max") == r2.extra.get("enclosure_over_tol_max")
    if name == "census-z4":
        assert first["enumeration.block_checks"] > 0 and first["hnf.smith_per_matrix"] == 2
    if name == "constants":
        assert first["analytics.primes_visited"] > 0 and first["analytics.sieve_builds"] > 0
        assert 0 < r1.extra["enclosure_over_tol_max"] <= 1


def test_extend_removes_ledgers_of_earlier_runs(tmp_path):
    (tmp_path / "ledger-old").mkdir()
    (tmp_path / "ledger-old" / "n3_p2.json").write_text("{}")
    workload = small("extend-z3", tmp_path)
    assert not (tmp_path / "ledger-old").exists()
    workload.run_pass()
    assert len(list(tmp_path.glob("ledger-*"))) == 1


def test_reference_seconds_cancel_processor_speed():
    """An interval is scaled by the mean sample time inside it, less the
    time the samples themselves took."""
    assert speed.scale(1.0, [speed.NOMINAL_S] * 10) == pytest.approx(1.0 - 10 * speed.NOMINAL_S)
    slow = [2 * speed.NOMINAL_S] * 10
    assert speed.scale(2.0, slow) == pytest.approx((2.0 - sum(slow)) / 2)
    with speed.Sampler(period=0.005) as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
        end = time.perf_counter()
    assert len(sampler.inside(start, end)) >= 5
    assert 0 < sampler.scaled(start, end) < 10
    with pytest.raises(ValueError):
        speed.scale(0.001, [])


def test_tracing_restores_call_sites(tmp_path):
    before = {(path, attr): getattr(tracing._site(MODS, path), attr)
              for path, attr, *_ in tracing.CALL_SITES}
    traced(small("census-z4", tmp_path))
    after = {(path, attr): getattr(tracing._site(MODS, path), attr)
             for path, attr, *_ in tracing.CALL_SITES}
    assert before == after


def test_self_time_is_duration_minus_child_coverage():
    tracer = tracing.Tracer("test")
    with tracer.span("bench.outer"):
        for _ in range(2):
            with tracer.span("bench.inner"):
                time.sleep(0.01)
    spans = {s[0]: s for s in tracer.spans}
    outer = next(s for s in spans.values() if s[1] == "bench.outer")
    inner = [s for s in spans.values() if s[1] == "bench.inner"]
    assert all(s[4] == outer[0] for s in inner)
    covered = sum(s[3] - s[2] for s in inner)
    assert outer[5] == outer[3] - outer[2] - covered
    assert tracer.layer_self_s()["bench"] == pytest.approx(
        (outer[3] - outer[2]) / 1e9, abs=1e-9)


def test_benchmark_json_names_every_metric(tmp_path):
    spec = json.loads((lib.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    metrics, _ = traced(small("constants", tmp_path))
    trace = {"trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s",
             "trace.overhead_share"}
    assert set(run.units("per_layer")) == set(metrics) | trace
    assert list(run.units("end_to_end")) == ["wall_s", "setup_s", "peak_rss_mib"]


def test_command_prints_contract_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(lib.ROOT / "perfbench" / "run.py"), "--workload", "extend-z3",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=lib.ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mib"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(lib.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(lib.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census-z4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
