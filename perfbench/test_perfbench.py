"""Tests of the benchmark itself: wrappers, output checks and seeds.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import time

import pytest

import run  # puts src/ and perfbench/ on sys.path
import workloads as wl
from pairdom import montecarlo
from tracing import Tracer


@pytest.fixture(scope="module")
def refs():
    return wl.load_references()


def test_patched_names_are_restored_even_after_an_error():
    targets = run.layer_targets()
    originals = [(t.module, t.attr, getattr(t.module, t.attr)) for t in targets]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched(targets):
            for module, attr, fn in originals:
                assert getattr(module, attr) is not fn
                assert getattr(module, attr).__wrapped__ is fn
            raise RuntimeError("boom")
    for module, attr, fn in originals:
        assert getattr(module, attr) is fn
    assert tracer.unwrapped == []


def test_self_times_account_for_the_traced_wall_time():
    cfg = montecarlo.ExperimentConfig(
        scenario=montecarlo.scenario("C8"), n=50, replications=3, master_seed=5,
        n_sims=200, tests=("stwj", "t", "wilcoxon"),
    )
    tracer = Tracer()
    with tracer.patched(run.layer_targets()), tracer.span(run.ROOT_SPAN):
        montecarlo.run_rejection_experiment(cfg)
    root = next(s for s in tracer.spans if s[0] == run.ROOT_SPAN)
    total_self = sum(t.self_s for t in tracer.totals.values())
    assert total_self == pytest.approx(root[2] - root[1], abs=1e-9)
    assert tracer.totals["gptest.pvalue_bounds"].calls == 3
    assert tracer.totals["seeding.derive_seed"].calls == 6
    assert tracer.counters["sim_calls"] == 3 and tracer.counters["sims"] == 600
    # every span except the root has a parent that encloses it
    for name, start, end, parent in tracer.spans:
        if name != run.ROOT_SPAN:
            p = tracer.spans[parent]
            assert p[1] <= start <= end <= p[2]


def test_output_check_fails_on_a_wrong_p_value(refs):
    ref = refs["analyst"]["assets_y_z"]
    good = {"statistic": ref["statistic"], "p1": ref["p1"], "n_sims": wl.CLI_N_SIMS}
    assert wl.check_test_output(good, ref) is None
    assert "p1" in wl.check_test_output({**good, "p1": ref["p1"] + 0.05}, ref)
    assert "statistic" in wl.check_test_output({**good, "statistic": ref["statistic"] + 1e-9}, ref)


def test_output_check_fails_on_a_wrong_rejection_rate(refs):
    ref = refs["power_table"]["C8_n100_stwj"]
    trials = 400
    right = {key: round(k / ref["replications"] * trials) for key, k in ref["rejections"].items()}
    assert wl.check_rates(right, trials, ref) is None
    # the paper's gate for C8 (0.97) is not what this code produces
    wrong = {**right, "stwj@0.05": round(0.97 * trials)}
    assert "stwj@0.05" in wl.check_rates(wrong, trials, ref)


@pytest.mark.parametrize("name", ["analyst", "baseline_table"])
def test_the_seed_changes_the_inputs_and_the_checks_still_pass(name, refs, tmp_path):
    runs = []
    for seed in (1, 2):
        workload = wl.make_workload(name, tmp_path / str(seed), seed)
        window = run.measure(workload, 0.2, 0)
        assert workload.check(window.ops, window.outcomes, refs) == [None] * len(window.ops)
        runs.append((workload, window.ops))
    (a, ops_a), (b, ops_b) = runs
    assert ops_a[0] != ops_b[0]
    if name == "analyst":
        assert a.members != b.members


def test_benchmark_json_declares_exactly_the_metrics_printed():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert declared["command"][1:] == ["perfbench/run.py"]
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.per_layer_units()


def test_exits_nonzero_without_the_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    started = time.perf_counter()
    assert run.main(["--workload", "analyst", "--seed", "1", "--seconds", "1"]) != 0
    assert time.perf_counter() - started < 5
    assert capsys.readouterr().out == ""
