"""Self-tests of the benchmark harness (not of the solver).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402


# -- percentile rule ----------------------------------------------------------


def test_percentile_interpolates_between_order_statistics():
    xs = [float(x) for x in range(1, 11)]
    assert tracing.percentile(xs, 50) == 5.5
    assert tracing.percentile(xs, 0) == 1.0
    assert tracing.percentile(xs, 100) == 10.0
    assert tracing.percentile(list(reversed(xs)), 90) == pytest.approx(9.1)
    with pytest.raises(ValueError):
        tracing.percentile([], 50)


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tracing.tail_percentile(n) == expected


# -- self-time arithmetic -------------------------------------------------------


def span(name, start, end, parent, work=None):
    return [name, name.split(".")[0], start, end, parent, work]


def synthetic_spans():
    return [
        span("experiments.experiment_nonlinear", 0.0, 10.0, -1),  # 0
        span("stepper.FriedrichsStepper.step", 1.0, 5.0, 0),  # 1
        span("model.explicit_rhs", 2.0, 4.0, 1),  # 2
        span("spectral.transform_to_physical", 2.5, 3.0, 2, (8, 24)),  # 3
        span("energy.EnergyMonitor.__call__", 6.0, 9.0, 0),  # 4
        span("energy.all_shell_energies", 6.5, 7.5, 4),  # 5
        span("lp.dyadic_spectrum", 7.0, 7.25, 5),  # 6
        span("lp.dyadic_spectrum", 8.0, 8.5, 4),  # 7
    ]


def test_self_times_on_nested_spans():
    self_t, own = tracing.self_times(synthetic_spans())
    assert self_t == [3.0, 2.0, 1.5, 0.5, 1.5, 0.75, 0.25, 0.5]
    # the monitor keeps its same-layer helper, loses the lp spectra
    assert own[4] == 2.25
    assert own[:4] == self_t[:4]
    assert sum(self_t) == 10.0


def test_process_metrics_counts_and_additivity():
    m = tracing.process_metrics(synthetic_spans(), shell_filter_builds=2)
    c, s = m["counts"], m["sums"]
    assert c["steps"] == 1 and c["monitor_samples"] == 1
    assert c["spectral.transforms_per_step"] == 1
    assert c["spectral.points_per_step"] == 8 and c["spectral.bytes_per_step"] == 24
    assert c["model.rhs_calls_per_step"] == 1
    assert c["lp.spectra_per_sample"] == 2
    assert c["lp.shell_filters_builds"] == 2
    assert s["trace.wall_s"] == 10.0
    layers = sum(v for k, v in s.items() if k.endswith(".self_s") and k != "experiments.self_s")
    assert layers + s["experiments.driver_self_s"] == pytest.approx(10.0, abs=1e-12)
    assert s["energy.monitor_share"] == pytest.approx(3.0 / 9.0)
    assert m["samples"]["energy.monitor_self_ms"] == [2250.0]


def test_process_metrics_rejects_two_roots():
    spans = synthetic_spans() + [span("experiments.experiment_linear", 11.0, 12.0, -1)]
    with pytest.raises(ValueError):
        tracing.process_metrics(spans, shell_filter_builds=0)


def test_tracer_records_parents_in_call_order():
    tracer = tracing.Tracer()

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap(inner, "lp.inner", "lp")
    traced_outer = tracer.wrap(lambda x: traced_inner(x) * 2, "energy.outer", "energy")
    assert traced_outer(1) == 4
    names = [s[tracing.NAME] for s in tracer.spans]
    parents = [s[tracing.PARENT] for s in tracer.spans]
    assert names == ["energy.outer", "lp.inner"] and parents == [-1, 0]
    assert all(s[tracing.END] >= s[tracing.START] for s in tracer.spans)


# -- output comparer --------------------------------------------------------------


def outputs(tmp_path: Path, scale: float = 1.0) -> dict:
    summary = {"experiment": "linear", "c_fit": 0.502, "margins": {"-1": -1.7e-4, "4": 0.0},
               "assertions": {"envelopes": True}}
    rows = [{"t": 1e-3 * i, "E": 1e-3 * (1 + i) * scale, "alpha": [[0, 3.2e-9 * scale]],
             "positivity": True} for i in range(20)]
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    (tmp_path / "records.ndjson").write_text("".join(json.dumps(r) + "\n" for r in rows))
    return check.extract(tmp_path, "records.ndjson")


def test_extract_samples_first_and_last_records(tmp_path):
    out = outputs(tmp_path)
    assert out["records"]["count"] == 20
    assert out["records"]["index"] == [0, 4, 8, 11, 15, 19]
    assert len(out["digest"]) == 64


def test_comparer_accepts_round_off(tmp_path):
    ref = outputs(tmp_path)
    near = outputs(tmp_path, scale=1.0 + 4e-16)
    assert near["digest"] != ref["digest"]
    assert check.compare(near, ref) == []
    nudged = copy.deepcopy(ref)
    nudged["summary"]["c_fit"] *= 1.0 + 1e-12
    nudged["summary"]["margins"]["4"] = 1e-20
    assert check.compare(nudged, ref) == []


def test_comparer_rejects_a_perturbed_record(tmp_path):
    ref = outputs(tmp_path)
    bad = copy.deepcopy(ref)
    bad["records"]["rows"][3]["E"] *= 1.0 + 1e-6
    assert len(check.compare(bad, ref)) == 1
    bad = copy.deepcopy(ref)
    bad["records"]["rows"][-1]["alpha"][0][1] *= 1.0 + 1e-7
    assert check.compare(bad, ref)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda o: o["summary"]["assertions"].update(envelopes=False),
        lambda o: o["records"].update(count=21),
        lambda o: o["records"]["rows"].pop(),
        lambda o: o["summary"].pop("c_fit"),
        lambda o: o["records"]["rows"][0].update(E=float("nan")),
    ],
)
def test_comparer_rejects_structural_changes(tmp_path, mutate):
    ref = outputs(tmp_path)
    bad = copy.deepcopy(ref)
    mutate(bad)
    assert check.compare(bad, ref)


# -- seeds and workloads ----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 7, 123456789])
def test_seed_argument_reaches_init_seed(name, seed):
    from nspbox.config import parse_config

    cfg = parse_config(config_text(WORKLOADS[name], seed))
    assert cfg.seed == seed


@pytest.mark.parametrize("seed, init_seed", [(0, 0), (7, 7), (31, 31), (32, 0), (40, 8), (123456789, 21)])
def test_every_benchmark_seed_runs_with_a_reference_seed(seed, init_seed):
    assert check.reference_seed(seed) == init_seed
    assert init_seed in check.REFERENCE_SEEDS


def test_reference_files_cover_every_workload_and_seed():
    for name in WORKLOADS:
        seeds = check.load_reference(BENCH / "reference" / f"{name}.jsonl")
        assert sorted(seeds) == list(check.REFERENCE_SEEDS), name
        for entry in seeds.values():
            assert set(entry) == {"summary", "records", "digest"}


def test_benchmark_json_matches_the_metrics_run_prints():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_run_rejects_a_result_from_another_seed():
    import run

    result = {"seed": 3, "exit_code": 0, "setup_s": 1.0, "steps": 5, "outputs": {}}
    assert run.failure(result, {}, 3) is None
    assert "init.seed" in run.failure(result, {}, 4)
    assert "exit code" in run.failure({**result, "exit_code": 1}, {}, 3)


def test_run_rejects_a_trace_whose_root_is_not_the_driver():
    import run

    result = {"seed": 3, "exit_code": 0, "wall_s": 2.0, "setup_s": 1.0, "steps": 5, "outputs": {}}
    assert run.failure({**result, "trace": {"sums": {"trace.wall_s": 1.9999}}}, {}, 3) is None
    assert "traced wall" in run.failure({**result, "trace": {"sums": {"trace.wall_s": 1.5}}}, {}, 3)
