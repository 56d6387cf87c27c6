"""Each benchmark check accepts the program's real output and rejects
that output with one planted error.

Run with the repository's tests:
    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import os

import numpy as np
import pytest

import oracles
import run
import spans
import workloads
from seiznet import cli
from seiznet.aggregation import BayesParams, bayes_decide, grid_search
from seiznet.data.records import EegRecord, load_record, record_segments, resample_to_256
from seiznet.data.synth import SynthParams, generate_record
from seiznet.interpret import deeplift, rank_filters
from seiznet.metrics import metric_set, roc_auc
from seiznet.model import load_model, predict_series
from seiznet.nn.layers import Conv
from seiznet.render import grid_csv

HERE = os.path.dirname(os.path.abspath(__file__))


def rejects(fn, *args, **kwargs):
    with pytest.raises(oracles.CheckFailed):
        fn(*args, **kwargs)


@pytest.fixture(scope="module")
def record():
    return generate_record(SynthParams(n_patients=1, records_per_patient=1, seed=5), 0, 0)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A tiny model run through the CLI stages the desk workload checks."""
    root = tmp_path_factory.mktemp("pipeline")
    store, run_dir = str(root / "store"), str(root / "run")
    weights = os.path.join(run_dir, "weights.bin")
    assert cli.main(["prepare", "--out", store, "--seed", "3", "--patients", "10", "--records-per-patient", "1"]) == 0
    assert cli.main(["train", "--data", store, "--out", run_dir, "--seed", "3", "--kernel", "9",
                     "--filters", "2,2,2", "--epochs", "1", "--patience", "1"]) == 0
    for method in ("bayes", "diff"):
        assert cli.main(["optimize", "--data", store, "--weights", weights, "--out", str(root / method),
                         "--method", method]) == 0
    assert cli.main(["aggregate", "--data", store, "--weights", weights, "--out", str(root / "agg"),
                     "--params", str(root / "bayes" / "params.json")]) == 0
    model = load_model(weights)
    with open(os.path.join(store, "records.json")) as fh:
        entries = json.load(fh)["records"]
    with open(os.path.join(store, "splits.json")) as fh:
        splits = json.load(fh)
    stored = {e["record_id"]: (np.load(os.path.join(store, e["file"])), e) for e in entries}
    series = []
    for fold in splits["folds"]:
        for rid in sorted(r for r, (_, e) in stored.items() if e["patient_id"] in fold["test"]):
            samples, e = stored[rid]
            pairs = oracles.part_windows(samples, e["onset_sample"])
            probs = model.predict_batch(np.stack([w for _, w in pairs])[:, :, :, None])
            series.append((probs, [n for n, _ in pairs]))
    return {"root": root, "store": store, "model": model, "series": series, "stored": stored}


def read(path):
    with open(path) as fh:
        return fh.read()


# ------------------------------------------------------------------ records


def test_record_equal_rejects_one_ulp(tmp_path, record):
    path = str(tmp_path / "r.csv")
    workloads.write_csv_record(path, record.samples)
    loaded = load_record(path, fs=256, onset_sample=record.onset_sample, patient_id="p")
    oracles.check_record_equal(loaded.samples, record.samples, "r")
    bad = loaded.samples.copy()
    bad[100, 2] = np.nextafter(bad[100, 2], np.inf)
    rejects(oracles.check_record_equal, bad, record.samples, "r")


def test_resampled_rejects_shift_and_wrong_onset(record):
    up = dataclasses.replace(record, samples=oracles.upsample_2x(record.samples), fs=512,
                             onset_sample=2 * record.onset_sample + 1)
    down = resample_to_256(up)
    oracles.check_resampled(down.samples, record.samples, down.onset_sample, up.onset_sample, "r")
    rejects(oracles.check_resampled, np.roll(down.samples, 1, axis=0), record.samples,
            down.onset_sample, up.onset_sample, "r")
    rejects(oracles.check_resampled, down.samples, record.samples, down.onset_sample + 1, up.onset_sample, "r")


def test_part_windows_match_the_program(record):
    ours = oracles.part_windows(record.samples, record.onset_sample)
    theirs = record_segments(record)
    assert [n for n, _ in ours] == [s.part for s in theirs]
    assert all(np.array_equal(w, s.data) for (_, w), s in zip(ours, theirs))


# ------------------------------------------------------------------ metrics


def test_auc_rejects_a_flipped_label():
    rng = np.random.default_rng(0)
    labels = (rng.random(60) < 0.5).astype(float)
    probs = np.round(np.clip(0.3 * labels + rng.random(60) * 0.7, 0, 1), 2)  # with ties
    oracles.check_auc(roc_auc(labels, probs), labels, probs, "auc")
    flipped = labels.copy()
    flipped[np.argmax(probs * (labels == 0))] = 1.0
    rejects(oracles.check_auc, roc_auc(flipped, probs), labels, probs, "auc")


def test_threshold_counts_reject_swapped_counts():
    rng = np.random.default_rng(1)
    labels = (rng.random(50) < 0.5).astype(float)
    probs = rng.random(50)
    counts = metric_set(labels, probs, 0.5).to_dict()
    oracles.check_threshold_counts(counts, labels, probs, 0.5, "t")
    counts["tp"], counts["fp"] = counts["fp"], counts["tp"]
    rejects(oracles.check_threshold_counts, counts, labels, probs, 0.5, "t")


def test_probabilities_reject_nan_and_out_of_range():
    oracles.check_probabilities([0.0, 0.5, 1.0], "p")
    rejects(oracles.check_probabilities, [0.5, np.nan], "p")
    rejects(oracles.check_probabilities, [0.5, 1.5], "p")


# ------------------------------------------------------------------ aggregation


@pytest.mark.parametrize("method", ["bayes", "diff"])
def test_grid_rejects_an_off_by_one_window(pipeline, method, tmp_path):
    root = pipeline["root"]
    params = json.loads(read(root / method / "params.json"))
    oracles.check_grid(read(root / method / "grid.csv"), params, pipeline["series"], method, method)

    class S:  # the attributes grid_search reads
        def __init__(self, i, probs, parts):
            self.record_id, self.probs, self.parts = f"s{i}", probs, tuple(parts)

    series = [S(i, p, parts) for i, (p, parts) in enumerate(pipeline["series"])]
    shifted = grid_search(series, method, windows=tuple(range(2, 25)))
    relabeled = dataclasses.replace(shifted, windows=tuple(range(1, 24)))
    grid_csv(relabeled, str(tmp_path / "grid.csv"))
    rejects(oracles.check_grid, read(tmp_path / "grid.csv"), params, pipeline["series"], method, method)
    other = dict(params, threshold=params["threshold"] + 0.25)
    rejects(oracles.check_grid, read(root / method / "grid.csv"), other, pipeline["series"], method, method)


def test_outcomes_reject_one_flipped_flag(pipeline):
    agg = pipeline["root"] / "agg"
    timelines = {n[:-4]: read(agg / "timelines" / n) for n in os.listdir(agg / "timelines")}
    text = read(agg / "outcomes.csv")
    oracles.check_outcomes(text, timelines, "outcomes")
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[1] = "0" if cells[1] == "1" else "1"
    lines[1] = ",".join(cells)
    rejects(oracles.check_outcomes, "\n".join(lines) + "\n", timelines, "outcomes")


def test_timeline_decisions_reject_one_flipped_decision(pipeline):
    agg = pipeline["root"] / "agg"
    params = json.loads(read(pipeline["root"] / "bayes" / "params.json"))
    name = sorted(os.listdir(agg / "timelines"))[0]
    samples, e = pipeline["stored"][name[:-4]]
    pairs = oracles.part_windows(samples, e["onset_sample"])
    probs = pipeline["model"].predict_batch(np.stack([w for _, w in pairs])[:, :, :, None])
    text = read(agg / "timelines" / name)
    oracles.check_timeline_decisions(text, probs, "bayes", params["window"], params["threshold"], name)
    lines = text.splitlines()
    cells = lines[30].split(",")
    cells[-1] = "0" if cells[-1] == "1" else "1"
    lines[30] = ",".join(cells)
    flipped = "\n".join(lines) + "\n"
    rejects(oracles.check_timeline_decisions, flipped, probs, "bayes", params["window"], params["threshold"], name)


def test_stream_rejects_off_by_one_and_perturbed_probabilities(pipeline):
    model = pipeline["model"]
    samples, e = next(iter(pipeline["stored"].values()))
    rec = EegRecord("r", "p", samples, 256, e["onset_sample"])
    # any defined log-odds sum exceeds -1e9, so only the undefined prefix decides negative
    rule = BayesParams(window=3, threshold=-1e9)
    probs, dec, *_ = workloads.stream_record(model, record_segments(rec), rule)
    series = predict_series(model, rec).probs
    oracles.check_stream(probs, series, dec, bayes_decide(probs, rule), 3, -1e9, "s")
    late = bayes_decide(probs, BayesParams(window=4, threshold=-1e9))
    rejects(oracles.check_stream, probs, series, list(late), late, 3, -1e9, "s")
    rejects(oracles.check_stream, probs, series + 1e-6, dec, bayes_decide(probs, rule), 3, -1e9, "s")


# ------------------------------------------------------------------ network


def test_conv_forward_rejects_a_shifted_tap():
    rng = np.random.default_rng(2)
    layer = Conv(7, 3, 2, 3, rng)
    layer.bias[:] = rng.standard_normal(3)
    x = rng.standard_normal((2, 40, 4, 2))
    spans_ = [(0, 10), (15, 25), (30, 40)]
    oracles.check_conv_forward(layer.forward(x), x, layer.kernel, layer.bias, spans_, "conv")
    kernel = layer.kernel.copy()
    layer.kernel[...] = np.roll(kernel, 1, axis=0)
    shifted = layer.forward(x)
    rejects(oracles.check_conv_forward, shifted, x, kernel, layer.bias, spans_, "conv")


def test_directional_derivative_rejects_a_shifted_gradient():
    rng = np.random.default_rng(3)
    layer = Conv(5, 3, 2, 2, rng)
    x = rng.standard_normal((1, 30, 4, 2))
    w = rng.standard_normal((1, 30, 4, 2))
    layer.forward(x, train=True)
    dx = layer.backward(w)
    dk = layer.d_kernel.copy()
    v = rng.standard_normal(x.shape)
    f = lambda z: float(np.sum(w * layer.forward(z)))  # noqa: E731
    oracles.check_directional_derivative(f, x, v, float(np.sum(dx * v)), "dx")
    rejects(oracles.check_directional_derivative, f, x, v, float(np.sum(np.roll(dx, 1, axis=1) * v)), "dx")
    k0 = layer.kernel.copy()
    u = rng.standard_normal(k0.shape)

    def g(k):
        layer.kernel[...] = k
        return float(np.sum(w * layer.forward(x)))

    oracles.check_directional_derivative(g, k0, u, float(np.sum(dk * u)), "dk")
    rejects(oracles.check_directional_derivative, g, k0, u, float(np.sum(np.roll(dk, 1, axis=0) * u)), "dk")


def test_summation_rejects_a_scaled_attribution(pipeline):
    samples, e = next(iter(pipeline["stored"].values()))
    window = oracles.part_windows(samples, e["onset_sample"])[-1][1]
    att = deeplift(pipeline["model"], window)
    delta = att.probability - att.reference_probability
    oracles.check_summation(att.shap, delta, "shap")
    bad = att.shap.copy()
    bad[np.unravel_index(np.argmax(np.abs(bad)), bad.shape)] *= 2.0
    rejects(oracles.check_summation, bad, delta, "shap")


def test_ascent_objective_matches_the_program_and_rejects_a_drop(pipeline):
    model = pipeline["model"]
    results = rank_filters(model, "first", init_amp=10.0, seed=4, steps=5)
    conv, bn = model.layers[0], model.layers[1]
    c = {"kernel": conv.kernel, "bias": conv.bias}
    b = {"gamma": bn.gamma, "beta": bn.beta, "running_mean": bn.running_mean, "running_var": bn.running_var}
    initial = {}
    for r in results:
        x0 = 10.0 * np.random.default_rng(4 + r.filter_idx).uniform(-1.0, 1.0, (1, oracles.WINDOW, 4, 1))
        initial[r.filter_idx] = oracles.first_block_objective(x0, c, b, r.filter_idx)
        assert initial[r.filter_idx] == pytest.approx(r.objective_init, rel=1e-10, abs=1e-12)
    raised = {f: v + 1.0 for f, v in initial.items()}
    oracles.check_ascent(initial, raised, "ascent")
    dropped = dict(raised)
    dropped[0] = initial[0] - 1.0
    rejects(oracles.check_ascent, initial, dropped, "ascent")


# ------------------------------------------------------------------ benchmark definition


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == spans.PER_LAYER
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)
    assert len(spans.PER_LAYER) <= 128


@pytest.mark.parametrize("n, p", [(40, 75), (138, 92), (276, 96), (1000, 99)])
def test_tail_percentile_leaves_ten_samples_beyond(n, p):
    assert workloads.tail_percentile(n) == p
