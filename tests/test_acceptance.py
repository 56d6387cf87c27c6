"""Acceptance checklist for the whole pipeline.

Each test covers one numbered criterion (A1 through A10) and prints a
single "[A#] PASS/FAIL ..." line with capture suspended, so the
checklist stays visible in the run log under pytest's fd capture.

The module-scoped full_run fixture drives a complete 40-patient
synthetic run (prepare, train, evaluate, optimize, aggregate) through
the command line entry point with the desk profile; A4, A6, A7 and
A10 read its artifacts, and the wall-clock budget asserted in A7
covers the fixture itself.
"""

import contextlib
import json
import math
import os
import time

import numpy as np
import pytest

from seiznet.aggregation import (
    DEFAULT_BAYES_THRESHOLDS,
    DEFAULT_BAYES_WINDOWS,
    DEFAULT_DIFF_LAGS,
    DEFAULT_DIFF_THRESHOLDS,
    Rule,
    decide,
    seizure_counts,
    seizure_eval,
    statistic,
)
from seiznet.cli import main
from seiznet.data.records import EegRecord, partition, record_segments, windows
from seiznet.data.synth import SynthParams, generate_corpus
from seiznet.interpret import (
    deeplift,
    main_frequencies,
    maximize_input,
    propagate_multipliers,
    rank_filters,
    welch_psd,
)
from seiznet.model import (
    ModelConfig,
    build,
    load_model,
    segments_to_arrays,
)
from seiznet.nn.gradcheck import (
    check_layer_gradients,
    draw_without_ties,
    finite_diff_check,
)
from seiznet.nn.layers import (
    BatchNorm,
    Conv,
    Dense,
    MaxPoolTime,
    ReLU,
    Sigmoid,
)
from seiznet.nn.loss import bce_loss, l2_penalty, sgd_step
from seiznet.store import load_store

SEED = 17


@pytest.fixture
def checklist(capfd):
    """Checklist printer for one criterion, pass or fail.

    pytest captures at the file descriptor level by default, which
    swallows even writes to the inherited stdout; capfd.disabled()
    restores the real descriptor for the duration of the print.
    """

    @contextlib.contextmanager
    def criterion(tag: str, description: str):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"[{tag}] FAIL {description}", flush=True)
            raise
        with capfd.disabled():
            print(f"[{tag}] PASS {description}", flush=True)

    return criterion


def run_ok(argv):
    assert main(argv) == 0, f"command failed: {argv}"


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    store = str(root / "store")
    train = str(root / "train")
    t0 = time.monotonic()
    run_ok(
        ["prepare", "--out", store, "--seed", str(SEED), "--patients", "40",
         "--records-per-patient", "2"]
    )
    run_ok(["train", "--data", store, "--out", train, "--seed", str(SEED)])
    weights = os.path.join(train, "weights.bin")
    eval_dir = str(root / "eval")
    run_ok(["evaluate", "--data", store, "--weights", weights, "--out", eval_dir])
    opt = {}
    agg = {}
    for method in ("bayes", "diff"):
        opt[method] = str(root / f"opt_{method}")
        run_ok(
            ["optimize", "--data", store, "--weights", weights,
             "--out", opt[method], "--method", method]
        )
        agg[method] = str(root / f"agg_{method}")
        run_ok(
            ["aggregate", "--data", store, "--weights", weights,
             "--out", agg[method], "--params",
             os.path.join(opt[method], "params.json")]
        )
    elapsed = time.monotonic() - t0
    return {
        "store": store,
        "weights": weights,
        "eval": eval_dir,
        "opt": opt,
        "agg": agg,
        "elapsed": elapsed,
    }


def test_a1_gradient_oracle(checklist):
    with checklist("A1", "layer backwards match finite differences"):
        t0 = time.monotonic()
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(300 + seed)
            worst = max(worst, check_layer_gradients(
                Conv(5, 3, 2, 2, rng), rng.standard_normal((2, 7, 3, 2)), rng
            ))
            worst = max(worst, check_layer_gradients(
                BatchNorm(3), rng.standard_normal((2, 6, 2, 3)), rng, train=True
            ))
            worst = max(worst, check_layer_gradients(
                Dense(24, 3, rng), rng.standard_normal((2, 4, 2, 3)), rng
            ))
            worst = max(worst, check_layer_gradients(
                ReLU(), draw_without_ties(rng, (2, 6, 3, 2)), rng
            ))
            worst = max(worst, check_layer_gradients(
                MaxPoolTime(3), draw_without_ties(rng, (2, 7, 2, 2)), rng
            ))
            worst = max(worst, check_layer_gradients(
                Sigmoid(), rng.standard_normal((2, 5, 2, 2)), rng
            ))
            probs = rng.uniform(0.05, 0.95, size=(8, 1))
            labels = rng.integers(0, 2, size=8).astype(float)
            analytic = bce_loss(probs, labels)[1]
            worst = max(worst, finite_diff_check(
                lambda: bce_loss(probs, labels)[0], probs, analytic
            ))
            dense = Dense(6, 3, rng)
            dense.weight[:] = rng.standard_normal(dense.weight.shape)
            dense.bias[:] = rng.standard_normal(dense.bias.shape)
            lam = 0.05
            for param in (dense.weight, dense.bias):
                worst = max(worst, finite_diff_check(
                    lambda: l2_penalty([dense], lam), param, 2.0 * lam * param
                ))
        elapsed = time.monotonic() - t0
        assert worst < 1e-4, f"worst relative error {worst:.3e}"
        assert elapsed < 60.0, f"gradient sweep took {elapsed:.1f}s"


def test_a2_segmentation_arithmetic(checklist):
    with checklist("A2", "part tiling and 23 zero-median windows per minute"):
        rng = np.random.default_rng(8)
        onset = 47000
        rec = EegRecord(
            record_id="r",
            patient_id="p",
            samples=rng.normal(scale=40.0, size=(70000, 4)),
            fs=256,
            onset_sample=onset,
        )
        parts = partition(rec)
        assert [p.name for p in parts.parts] == [
            "extended_interictal", "interictal", "preictal", "ictal",
        ]
        assert all(p.available for p in parts.parts)
        assert parts.parts[0].start == onset - 3 * 60 * 256
        assert parts.parts[-1].stop == onset + 60 * 256
        for left, right in zip(parts.parts, parts.parts[1:]):
            assert left.stop == right.start
        for part in parts.parts:
            assert part.stop - part.start == 60 * 256
            segs = windows(rec, part)
            assert len(segs) == 23
            starts = [s.start_sample for s in segs]
            assert starts == list(range(part.start, part.start + 23 * 640, 640))
            for seg in segs:
                medians = np.median(seg.data, axis=0)
                assert np.max(np.abs(medians)) <= 1e-9
        labels = {p.name: windows(rec, p)[0].label for p in parts.parts}
        assert labels == {
            "extended_interictal": None,
            "interictal": 0,
            "preictal": None,
            "ictal": 1,
        }


def test_a3_aggregation_oracles(checklist):
    with checklist("A3", "log-odds and difference detectors match their definitions"):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(1, 31))
            w = int(rng.integers(1, n + 1))
            probs = rng.uniform(0.001, 0.999, size=n)
            got = statistic(probs, "bayes", w)
            assert np.all(np.isnan(got[: w - 1]))
            for t in range(w - 1, n):
                ratio = np.prod(probs[t - w + 1 : t + 1] / (1.0 - probs[t - w + 1 : t + 1]))
                assert abs(got[t] - math.log(ratio)) < 1e-12
        for _ in range(200):
            n = int(rng.integers(2, 40))
            lag = int(rng.integers(1, n))
            th = float(rng.uniform(0.05, 0.95))
            probs = rng.uniform(0.0, 1.0, size=n)
            got = decide(probs, Rule("diff", lag, th))
            naive = np.array(
                [t >= lag and probs[t] - probs[t - lag] > th for t in range(n)]
            )
            assert np.array_equal(got, naive)
        # detections confined to the grey region count on neither side
        parts = ("interictal",) * 23 + ("preictal",) * 23 + ("ictal",) * 23
        decisions = np.zeros(69, dtype=bool)
        decisions[23:46] = True
        outcome = seizure_eval(decisions, parts, "adversarial")
        assert outcome is not None
        counts = seizure_counts([outcome])
        assert counts.tp == 0
        assert counts.fp == 0


def test_a4_deeplift_summation(full_run, checklist):
    with checklist("A4", "attributions sum to the output delta"):
        model = load_model(full_run["weights"])
        records, _, _ = load_store(full_run["store"])
        rng = np.random.default_rng(41)
        worst = 0.0
        for _ in range(50):
            rec = records[int(rng.integers(len(records)))]
            segs = record_segments(rec, labeled_only=False)
            seg = segs[int(rng.integers(len(segs)))]
            attribution = deeplift(model, seg.data)
            worst = max(worst, attribution.summation_gap)
        assert worst < 1e-6, f"worst summation gap {worst:.3e}"
        # linear special case has a closed-form attribution
        rng = np.random.default_rng(3)
        dense = Dense(6, 1, rng)
        layers = [dense, Sigmoid()]
        x = rng.normal(size=(1, 6))
        m, out, ref_out = propagate_multipliers(layers, x, np.zeros_like(x))
        z = float((x @ dense.weight + dense.bias)[0, 0])
        b = float(dense.bias[0])
        sig = lambda v: 1.0 / (1.0 + np.exp(-v))
        m_sig = (sig(z) - sig(b)) / (z - b)
        want = m_sig * dense.weight[:, 0] * x[0]
        np.testing.assert_allclose((m * x)[0], want, rtol=1e-12, atol=1e-15)
        assert abs(float((m * x).sum()) - (out - ref_out)) < 1e-12


def test_a5_spectral_oracle(checklist):
    with checklist("A5", "welch psd recovers pure tones within 1 Hz"):
        fs = 256
        t = np.arange(1280) / fs
        for tone in (5, 8, 14, 72, 97):
            signal = 30.0 * np.sin(2 * np.pi * tone * t)
            freqs = main_frequencies(welch_psd(signal))
            assert freqs, f"no frequency found for {tone} Hz"
            assert abs(freqs[0] - tone) <= 1
        two = 30.0 * np.sin(2 * np.pi * 8 * t) + 25.0 * np.sin(2 * np.pi * 30 * t)
        found = main_frequencies(welch_psd(two))
        assert any(abs(f - 8) <= 1 for f in found)
        assert any(abs(f - 30) <= 1 for f in found)


def test_a6_maximization_sanity(full_run, checklist):
    with checklist("A6", "maximization recovers a planted 10 Hz kernel"):
        config = ModelConfig.full(
            time_kernel=131, filters=(8, 8, 8), fc_hidden=16, seed=0
        )
        model = build(config)
        conv = model.layers[0]
        taps = np.arange(config.time_kernel) - config.time_kernel // 2
        conv.kernel[:, :, 0, 2] = np.sin(2 * np.pi * 10.0 * taps / 256.0)[:, None]
        conv.bias[2] = 0.0
        res = maximize_input(model, "first", 2, init_amp=10.0, seed=4, steps=80)
        hits = 0
        for c in range(res.signal.shape[1]):
            freqs = main_frequencies(welch_psd(res.signal[:, c]))
            if freqs and abs(freqs[0] - 10) <= 1:
                hits += 1
        assert hits >= 3, f"10 Hz dominant on only {hits} of 4 channels"
        trained = load_model(full_run["weights"])
        results = []
        for target in ("first", "last_block"):
            results.extend(rank_filters(trained, target, init_amp=10.0, seed=2))
        improved = sum(r.objective >= r.objective_init for r in results)
        frac = improved / len(results)
        assert frac >= 0.95, f"objective improved on {improved}/{len(results)} filters"


def test_a7_end_to_end(full_run, checklist):
    with checklist("A7", "synthetic end-to-end run meets its targets"):
        model = load_model(full_run["weights"])
        history = model.history
        assert history is not None
        assert 1 <= history.best_epoch <= history.stopped_epoch
        assert history.stopped_epoch <= model.config.max_epochs
        assert len(history.train_loss) == history.stopped_epoch
        payload = json.loads(
            open(os.path.join(full_run["eval"], "metrics.json")).read()
        )
        auc = payload["auc"]["mean"]
        assert auc >= 0.95, f"cross-validated AUC {auc:.4f}"
        agg_diff = json.loads(
            open(os.path.join(full_run["agg"]["diff"], "metrics.json")).read()
        )
        sens = agg_diff["seizure_metrics"]["sensitivity"]
        assert sens is not None and sens >= 0.90, f"diff sensitivity {sens}"
        agg_bayes = json.loads(
            open(os.path.join(full_run["agg"]["bayes"], "metrics.json")).read()
        )
        f1 = agg_bayes["seizure_metrics"]["f1"]
        assert f1 is not None and f1 >= 0.90, f"bayes F1 {f1}"
        assert full_run["elapsed"] <= 1800.0, f"run took {full_run['elapsed']:.0f}s"


def test_a8_overfit_sanity(checklist):
    with checklist("A8", "eight segments overfit in 200 bare SGD steps"):
        records = generate_corpus(
            SynthParams(n_patients=2, records_per_patient=1, seed=9)
        )
        segs = [s for r in records for s in record_segments(r, labeled_only=True)]
        pos = [s for s in segs if s.label == 1][:4]
        neg = [s for s in segs if s.label == 0][:4]
        x, y = segments_to_arrays(pos + neg)
        config = ModelConfig.desk(
            time_kernel=15, filters=(2, 4, 4), fc_hidden=8,
            dropout=0.0, l2=0.0, seed=1,
        )
        model = build(config)
        loss = float("inf")
        for _ in range(200):
            probs = model.forward(x, train=True)
            loss, d = bce_loss(probs, y)
            if loss < 0.05:
                break
            for layer in reversed(model.layers):
                d = layer.backward(d)
            sgd_step(model.layers, config.lr)
        assert loss < 0.05, f"loss stuck at {loss:.4f}"


def test_a9_determinism(tmp_path, checklist):
    with checklist("A9", "identical seeds reproduce artifacts bit for bit"):
        outputs = []
        for tag in ("one", "two"):
            root = tmp_path / tag
            store = str(root / "store")
            train = str(root / "train")
            run_ok(["prepare", "--out", store, "--seed", "23", "--patients", "10",
                    "--records-per-patient", "1"])
            run_ok(["train", "--data", store, "--out", train, "--seed", "23",
                    "--kernel", "9", "--filters", "2,2,2", "--epochs", "2",
                    "--patience", "2"])
            weights = os.path.join(train, "weights.bin")
            eval_dir = str(root / "eval")
            run_ok(["evaluate", "--data", store, "--weights", weights,
                    "--out", eval_dir])
            opt_dir = str(root / "opt")
            run_ok(["optimize", "--data", store, "--weights", weights,
                    "--out", opt_dir, "--method", "bayes"])
            attr_dir = str(root / "attr")
            run_ok(["attribute", "--data", store, "--weights", weights,
                    "--out", attr_dir, "--record", "p000r0", "--window", "50"])
            outputs.append({
                "weights": open(weights, "rb").read(),
                "metrics": open(os.path.join(eval_dir, "metrics.json"), "rb").read(),
                "grid": open(os.path.join(opt_dir, "grid.csv"), "rb").read(),
                "params": open(os.path.join(opt_dir, "params.json"), "rb").read(),
                "shap": open(os.path.join(attr_dir, "shap.csv"), "rb").read(),
            })
        for key in outputs[0]:
            assert outputs[0][key] == outputs[1][key], f"{key} differs between runs"


def test_a10_protocol_parity(full_run, checklist):
    with checklist("A10", "metric layout and grids cover the reference ranges"):
        payload = json.loads(
            open(os.path.join(full_run["eval"], "metrics.json")).read()
        )
        assert set(payload["thresholds"]) == {"0.15", "0.85"}
        for block in payload["thresholds"].values():
            assert {"accuracy", "sensitivity", "specificity", "precision",
                    "f1"} <= set(block)
        csv_lines = open(
            os.path.join(full_run["eval"], "metrics.csv")
        ).read().splitlines()
        assert [line.split(",")[0] for line in csv_lines[1:]] == ["0.15", "0.85"]
        assert {5, 7} <= set(DEFAULT_BAYES_WINDOWS)
        assert {1.5, 2.5} <= set(DEFAULT_BAYES_THRESHOLDS)
        assert {15, 17, 21} <= set(DEFAULT_DIFF_LAGS)
        assert {0.45, 0.5} <= set(DEFAULT_DIFF_THRESHOLDS)
        bayes_grid = open(
            os.path.join(full_run["opt"]["bayes"], "grid.csv")
        ).read().splitlines()
        header = bayes_grid[0].split(",")
        rows = {line.split(",")[0] for line in bayes_grid[1:]}
        assert {"5", "7"} <= rows
        assert {"1.5", "2.5"} <= set(header[1:])
        diff_grid = open(
            os.path.join(full_run["opt"]["diff"], "grid.csv")
        ).read().splitlines()
        header = diff_grid[0].split(",")
        rows = {line.split(",")[0] for line in diff_grid[1:]}
        assert {"15", "17", "21"} <= rows
        assert {"0.45", "0.5"} <= set(header[1:])
