"""The three benchmark workloads: desk-pipeline, full-k131, online-stream.

Each workload has a set-up, a round (one complete pass of the same
operations, repeated while the run lasts) and an output check.  A round
returns raw samples per end-to-end metric; the run reports their
medians.  Everything the program receives is generated here from the
workload seed.
"""

from __future__ import annotations

import csv
import json
import os
import statistics
import time

import numpy as np

import oracles
from seiznet import cli
from seiznet.aggregation import BayesParams, bayes_decide
from seiznet.data.records import record_segments
from seiznet.data.synth import SynthParams, generate_record
from seiznet.interpret import deeplift, maximize_input, propagate_multipliers
from seiznet.model import ModelConfig, build, fit, load_model, predict_series, save_model
from seiznet.store import ingest_manifest, load_store

ONLINE_TAIL_MIN_BEYOND = 10
# Lowest cross-validated AUC the desk pipeline may report on the planted
# corpus; README gives the margin measured over seeds and thread counts.
QUALITY_FLOOR_AUC = 0.8


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    p = 99
    while n * (100 - p) / 100.0 < ONLINE_TAIL_MIN_BEYOND:
        p -= 1
    return p


def percentile(values, p: int) -> float:
    return float(np.percentile(np.asarray(values), p, method="lower"))


def run_cli(argv: list[str]) -> float:
    """Run one CLI command in process; returns its wall time."""
    t0 = time.perf_counter()
    rc = cli.main(argv)
    dt = time.perf_counter() - t0
    if rc != 0:
        raise RuntimeError(f"seiznet {' '.join(argv)} exited {rc}")
    return dt


def write_csv_record(path: str, samples: np.ndarray) -> None:
    """Headerless 4-column CSV; %.17g round-trips every float64."""
    np.savetxt(path, samples, fmt="%.17g", delimiter=",")


def stream_record(model, segments, rule: BayesParams, tracer=None):
    """Replay windows one at a time: score at batch 1, append, decide.

    Returns probabilities, decisions and per-window latencies (seconds)
    split into total, scoring and decision update.
    """
    probs: list[float] = []
    decisions: list[bool] = []
    total, score, update = [], [], []
    for seg in segments:
        x = seg.data[None, :, :, None]
        t0 = time.perf_counter()
        p = model.predict_batch(x)[0]
        t1 = time.perf_counter()
        probs.append(p)
        d = bool(bayes_decide(np.asarray(probs), rule)[-1])
        t2 = time.perf_counter()
        decisions.append(d)
        total.append(t2 - t0)
        score.append(t1 - t0)
        update.append(t2 - t1)
    if tracer is not None:
        for u in update:
            tracer.record("aggregation.online_update", u)
    return np.array(probs), decisions, total, score, update


def alarm_window(decisions: list[bool]) -> int:
    """Window explained to the user: the first alarm, else the last window."""
    return decisions.index(True) if True in decisions else len(decisions) - 1


class Workload:
    name = ""
    # operations per round, for `attempted`
    ops_per_round = 0

    def __init__(self, work: str, seed: int, tracer=None):
        self.work = work
        self.seed = seed
        self.tracer = tracer
        self.failures: list[str] = []
        self.notes: list[str] = []  # printed on stderr after the run

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    def check(self, what: str, fn, *args, **kwargs) -> None:
        try:
            fn(*args, **kwargs)
        except oracles.CheckFailed as exc:
            self.failures.append(f"{what}: {exc}")

    def online_metrics(self, latencies: list[float]) -> dict:
        p = tail_percentile(len(latencies))
        return {
            "online_window_ms": 1000.0 * statistics.median(latencies),
            "online_window_tail_ms": 1000.0 * percentile(latencies, p),
        }


# ====================================================================
# desk-pipeline
# ====================================================================


class DeskPipeline(Workload):
    """Every CLI stage on the desk profile, with online replays between them.

    10 patients with one 180 s record each; odd patients are written at
    512 Hz (band-limited 2x upsampling, onset 2 * onset + 1), even ones
    at 256 Hz.
    """

    name = "desk-pipeline"
    PATIENTS = 10
    EPOCHS = 2
    MAXIMIZE_STEPS = 80  # the CLI default
    # interictal 5-20, preictal 30-40, ictal 50-65; eight short calls so
    # that their median time holds when one or two are slowed
    ATTRIBUTE_WINDOWS = (5, 10, 20, 30, 40, 50, 60, 65)
    ONLINE_WINDOWS = 2 * 69  # the two test patients' records
    # A run holds one round, so the online replay runs once after each
    # stage from `optimize --method bayes` to `maximize` and four times
    # after the last `attribute`; the run reports the pass medians.
    ONLINE_PASSES = 8
    ops_per_round = 7 + len(ATTRIBUTE_WINDOWS) + ONLINE_PASSES * ONLINE_WINDOWS  # CLI calls, streamed windows

    counts = None  # (windows through fit per epoch, windows scored) per round

    def setup(self) -> None:
        os.makedirs(self.path("csv"))
        params = SynthParams(n_patients=self.PATIENTS, records_per_patient=1, seed=self.seed)
        self.generated = {}
        manifest = []
        for p in range(self.PATIENTS):
            rec = generate_record(params, p, 0)
            self.generated[rec.record_id] = rec
            fname = f"{rec.record_id}.csv"
            if p % 2:
                onset = 2 * rec.onset_sample + 1
                write_csv_record(self.path("csv", fname), oracles.upsample_2x(rec.samples))
                fs = 512
            else:
                onset = rec.onset_sample
                write_csv_record(self.path("csv", fname), rec.samples)
                fs = 256
            manifest.append({"patient_id": rec.patient_id, "file": fname, "fs": fs, "onset_sample": onset})
        self.manifest = manifest
        with open(self.path("csv", "manifest.json"), "w") as fh:
            json.dump(manifest, fh)

    def round(self, k: int) -> dict:
        r = self.path(f"round{k}")
        store, run = os.path.join(r, "store"), os.path.join(r, "run")
        weights = os.path.join(run, "weights.bin")
        bayes_params = os.path.join(r, "opt_bayes", "params.json")
        seed = str(self.seed)
        t_start = time.perf_counter()
        t_prepare = run_cli(["prepare", "--manifest", self.path("csv", "manifest.json"), "--seed", seed, "--out", store])
        t_train = run_cli(["train", "--data", store, "--out", run, "--seed", seed,
                           "--epochs", str(self.EPOCHS), "--patience", str(self.EPOCHS)])
        t_score = run_cli(["evaluate", "--data", store, "--weights", weights, "--out", os.path.join(r, "eval")])
        t_score += run_cli(["optimize", "--data", store, "--weights", weights,
                            "--out", os.path.join(r, "opt_bayes"), "--method", "bayes"])

        # Online replay of the held-out test records with the bayes rule,
        # one pass now and one after each later stage but the short
        # attribute calls, so that the passes are spread over the round.
        # pipeline_s leaves the replays out.
        t0 = time.perf_counter()
        records, plan, _ = load_store(store)
        test_records = sorted((x for x in records if x.patient_id in plan.test_patients), key=lambda x: x.record_id)
        if self.counts is None:
            self.counts = (self._train_windows(records, plan), self._scored_windows(records, plan))
        n_train, n_scored = self.counts
        model = load_model(weights)
        with open(bayes_params) as fh:
            params = json.load(fh)
        rule = BayesParams(window=params["window"], threshold=params["threshold"])
        stream, passes = {}, []

        def replay() -> None:
            latencies = []
            for rec in test_records:
                probs, dec, total, _, _ = stream_record(model, record_segments(rec), rule, self.tracer)
                latencies += total
                stream[rec.record_id] = (probs, dec)
            passes.append(self.online_metrics(latencies))

        replay()
        t_online = time.perf_counter() - t0

        def stage(argv: list[str]) -> float:
            nonlocal t_online
            t = run_cli(argv)
            t0 = time.perf_counter()
            replay()
            t_online += time.perf_counter() - t0
            return t

        t_score += stage(["optimize", "--data", store, "--weights", weights,
                          "--out", os.path.join(r, "opt_diff"), "--method", "diff"])
        t_score += stage(["aggregate", "--data", store, "--weights", weights, "--out", os.path.join(r, "agg"),
                          "--params", bayes_params])
        t_max = stage(["maximize", "--weights", weights, "--out", os.path.join(r, "max"), "--seed", seed,
                       "--steps", str(self.MAXIMIZE_STEPS)])
        with open(os.path.join(store, "splits.json")) as fh:
            first_test = sorted(json.load(fh)["test_patients"])[0]
        t_attr = [
            run_cli(["attribute", "--data", store, "--weights", weights, "--out", os.path.join(r, f"attr{w}"),
                     "--record", f"{first_test}r0", "--window", str(w)])
            for w in self.ATTRIBUTE_WINDOWS
        ]
        t_pipeline = time.perf_counter() - t_start - t_online
        while len(passes) < self.ONLINE_PASSES:
            replay()

        self.last = {"dir": r, "store": store, "weights": weights, "rule": rule, "stream": stream,
                     "test_records": [x.record_id for x in test_records]}
        out = {
            "pipeline_s": t_pipeline,
            "ingest_records_per_s": len(self.manifest) / t_prepare,
            "train_windows_per_s": n_train * self.EPOCHS / t_train,
            "score_windows_per_s": n_scored / t_score,
            "attribute_windows_per_s": 1.0 / statistics.median(t_attr),
            "maximize_steps_per_s": model.layers[0].f_out * self.MAXIMIZE_STEPS / t_max,
        }
        out.update({name: statistics.median(p[name] for p in passes) for name in passes[0]})
        return out

    @staticmethod
    def _train_windows(records, plan) -> int:
        """Windows through fit per epoch (90 % of the training patients' labeled windows)."""
        n = sum(len(record_segments(r, labeled_only=True)) for r in records if r.patient_id in plan.train_patients)
        return n - max(1, round(0.1 * n))

    @staticmethod
    def _scored_windows(records, plan) -> int:
        """Windows scored by evaluate, optimize (x2) and aggregate."""
        train = [r for r in records if r.patient_id in plan.train_patients]
        test = [r for r in records if r.patient_id in plan.test_patients]
        labeled = sum(len(record_segments(r, labeled_only=True)) for r in train)
        series = sum(len(record_segments(r)) for r in train)
        return labeled + 2 * series + sum(len(record_segments(r)) for r in test)

    # ---------------------------------------------------------- checks

    def verify(self) -> None:
        L = self.last
        r, store = L["dir"], L["store"]
        with open(os.path.join(store, "records.json")) as fh:
            entries = {e["record_id"]: e for e in json.load(fh)["records"]}
        stored = {rid: np.load(os.path.join(store, e["file"])) for rid, e in entries.items()}
        for m in self.manifest:
            rid = m["file"][:-4]
            gen = self.generated[rid]
            if m["fs"] == 256:
                self.check("ingest 256 Hz", oracles.check_record_equal, stored[rid], gen.samples, rid)
                self.check("ingest 256 Hz onset", oracles.require, entries[rid]["onset_sample"] == gen.onset_sample,
                           f"{rid}: onset {entries[rid]['onset_sample']} != {gen.onset_sample}")
            else:
                self.check("ingest 512 Hz", oracles.check_resampled, stored[rid], gen.samples,
                           entries[rid]["onset_sample"], m["onset_sample"], rid)

        model = load_model(L["weights"])
        with open(os.path.join(store, "splits.json")) as fh:
            splits = json.load(fh)

        def probs_of(x):
            return model.predict_batch(x[:, :, :, None])

        # evaluate: fold AUCs and threshold counts on the benchmark's own windows
        with open(os.path.join(r, "eval", "metrics.json")) as fh:
            ev = json.load(fh)
        all_y, all_p = [], []
        for i, fold in enumerate(splits["folds"]):
            xs, ys = [], []
            for rid in sorted(rid for rid, e in entries.items() if e["patient_id"] in fold["test"]):
                x, y = oracles.labeled_windows(stored[rid], entries[rid]["onset_sample"])
                xs.append(x)
                ys.append(y)
            y = np.concatenate(ys)
            p = probs_of(np.concatenate(xs))
            self.check("probabilities", oracles.check_probabilities, p, f"fold {i}")
            self.check("evaluate AUC", oracles.check_auc, ev["auc"]["per_fold"][i], y, p, f"fold {i}")
            all_y.append(y)
            all_p.append(p)
        y, p = np.concatenate(all_y), np.concatenate(all_p)
        for t, counts in ev["thresholds"].items():
            self.check("evaluate counts", oracles.check_threshold_counts, counts, y, p, float(t), f"threshold {t}")
        self.notes.append(f"cross-validated AUC {ev['auc']['mean']:.4f} (floor {QUALITY_FLOOR_AUC})")
        self.check("quality floor", oracles.require, ev["auc"]["mean"] >= QUALITY_FLOOR_AUC,
                   f"cross-validated AUC {ev['auc']['mean']:.4f} below {QUALITY_FLOOR_AUC}")

        # optimize: every grid cell and the argmax against a naive recount
        series = []
        for fold in splits["folds"]:
            for rid in sorted(rid for rid, e in entries.items() if e["patient_id"] in fold["test"]):
                pairs = oracles.part_windows(stored[rid], entries[rid]["onset_sample"])
                x = np.stack([w for _, w in pairs])
                series.append((probs_of(x), [n for n, _ in pairs]))
        for method in ("bayes", "diff"):
            d = os.path.join(r, f"opt_{method}")
            with open(os.path.join(d, "grid.csv")) as fh:
                grid = fh.read()
            with open(os.path.join(d, "params.json")) as fh:
                params = json.load(fh)
            self.check(f"optimize {method}", oracles.check_grid, grid, params, series, method, method)

        # aggregate: outcome flags recounted from the timelines, timeline
        # decisions against the naive rule on independently scored windows
        agg = os.path.join(r, "agg")
        timelines = {}
        for name in sorted(os.listdir(os.path.join(agg, "timelines"))):
            with open(os.path.join(agg, "timelines", name)) as fh:
                timelines[name[:-4]] = fh.read()
        with open(os.path.join(agg, "outcomes.csv")) as fh:
            self.check("aggregate outcomes", oracles.check_outcomes, fh.read(), timelines, "outcomes.csv")
        rule = L["rule"]
        for rid, text in timelines.items():
            pairs = oracles.part_windows(stored[rid], entries[rid]["onset_sample"])
            probs = probs_of(np.stack([w for _, w in pairs]))
            self.check("aggregate timeline", oracles.check_timeline_decisions, text, probs, "bayes",
                       rule.window, rule.threshold, rid)
            _, tl_probs, _ = oracles.read_timeline(text)
            self.check("probabilities", oracles.check_probabilities, tl_probs, f"timeline {rid}")

        # attribute: summation to delta, probabilities scored independently
        rid = L["test_records"][0]
        pairs = oracles.part_windows(stored[rid], entries[rid]["onset_sample"])
        for w in self.ATTRIBUTE_WINDOWS:
            d = os.path.join(r, f"attr{w}")
            shap = np.loadtxt(os.path.join(d, "shap.csv"), delimiter=",", skiprows=1)
            with open(os.path.join(d, "attribution.json")) as fh:
                att = json.load(fh)
            p_x = probs_of(pairs[w][1][None])[0]
            p_ref = probs_of(np.zeros((1, oracles.WINDOW, 4)))[0]
            self.check("attribute probability", oracles.check_close, att["probability"], p_x, f"window {w}", 1e-9, 1e-12)
            self.check("attribute summation", oracles.check_summation, shap, p_x - p_ref, f"window {w}")

        # maximize: ascent raises the objective, recomputed from the
        # documented starting noise with a direct first-block forward
        conv, bn = model.layers[0], model.layers[1]
        cparams = {"kernel": conv.kernel, "bias": conv.bias}
        bparams = {"gamma": bn.gamma, "beta": bn.beta, "running_mean": bn.running_mean, "running_var": bn.running_var}
        with open(os.path.join(r, "max", "report.csv")) as fh:
            rows = list(csv.DictReader(fh))
        final = {int(row["filter_idx"]): float(row["objective"]) for row in rows}
        initial = {}
        for f in final:
            x0 = 10.0 * np.random.default_rng(self.seed + f).uniform(-1.0, 1.0, (1, oracles.WINDOW, 4, 1))
            initial[f] = round(oracles.first_block_objective(x0, cparams, bparams, f), 6)
        self.check("maximize ascent", oracles.check_ascent, initial, final, "report.csv")
        self.check("probabilities", oracles.check_probabilities, [float(row["prediction"]) for row in rows], "report.csv")

        # online replay: batch-1 stream against predict_series, causal decisions
        by_id = {x.record_id: x for x in load_store(store)[0]}
        for rid, (probs, dec) in L["stream"].items():
            series_probs = predict_series(model, by_id[rid]).probs
            full = bayes_decide(probs, rule)
            self.check("online stream", oracles.check_stream, probs, series_probs, dec, full,
                       rule.window, rule.threshold, rid)


# ====================================================================
# full-k131
# ====================================================================


class FullK131(Workload):
    """The paper's full network (first-block kernel 131) on four records.

    Five ingests of the four CSV records (the rate takes the median
    time, so that one slowed call does not move it; the pipeline starts
    with the last), one SGD step of 32 windows through fit (plus 2
    validation windows),
    a weight round trip, 32 windows scored in one batch, DeepLIFT on 4
    windows, 4 x 10 steps of first-layer maximization and a 40-window
    online replay.
    """

    name = "full-k131"
    RECORDS = 4
    TRAIN, VAL, SCORE = 32, 2, 32
    INGESTS = 5
    ATTRIBUTE = 4
    MAX_FILTERS, MAX_STEPS = 4, 10
    ONLINE_WINDOWS = 40
    ops_per_round = INGESTS + 3 + ATTRIBUTE + MAX_FILTERS + ONLINE_WINDOWS  # ingests, fit, save+load, score, ...

    def setup(self) -> None:
        os.makedirs(self.path("csv"))
        params = SynthParams(n_patients=self.RECORDS, records_per_patient=1, seed=self.seed)
        manifest = []
        for p in range(self.RECORDS):
            rec = generate_record(params, p, 0)
            fname = f"{rec.record_id}.csv"
            write_csv_record(self.path("csv", fname), rec.samples)
            manifest.append({"patient_id": rec.patient_id, "file": fname, "fs": 256, "onset_sample": rec.onset_sample})
        with open(self.path("csv", "manifest.json"), "w") as fh:
            json.dump(manifest, fh)
        self.config = ModelConfig.full(time_kernel=131, seed=self.seed, max_epochs=1, patience=1)
        # Per class (interictal, ictal): a seeded order over the 23 * RECORDS
        # labeled windows; train, validation and scoring take equal halves.
        rng = np.random.default_rng([self.seed, 131])
        self.order = [rng.permutation(23 * self.RECORDS) for _ in range(2)]

    def round(self, k: int) -> dict:
        t_ingest = []
        for _ in range(self.INGESTS):
            t_start = time.perf_counter()
            records = ingest_manifest(self.path("csv", "manifest.json"))
            t_ingest.append(time.perf_counter() - t_start)
        segs = [s for rec in records for s in record_segments(rec, labeled_only=True)]
        pools = ([s for s in segs if s.label == 0], [s for s in segs if s.label == 1])
        by_label = [[pool[i] for i in order] for order, pool in zip(self.order, pools)]
        cuts = np.cumsum([0, self.TRAIN // 2, self.VAL // 2, self.SCORE // 2])
        train, val, score = (
            [s for i in range(cuts[j], cuts[j + 1]) for s in (by_label[0][i], by_label[1][i])]
            for j in range(3)
        )

        model = build(self.config)
        t0 = time.perf_counter()
        fit(model, train, val)
        t_train = time.perf_counter() - t0
        weights = self.path("weights.bin")
        save_model(model, weights)
        model = load_model(weights)

        x_score = np.stack([s.data for s in score])[:, :, :, None]
        t0 = time.perf_counter()
        probs = model.predict_batch(x_score)
        t_score = time.perf_counter() - t0

        attributions, t_attr = [], []
        for s in score[: self.ATTRIBUTE]:
            t0 = time.perf_counter()
            attributions.append(deeplift(model, s.data))
            t_attr.append(time.perf_counter() - t0)

        t_max = []
        for f in range(self.MAX_FILTERS):
            t0 = time.perf_counter()
            maximize_input(model, "first", f, init_amp=10.0, seed=self.seed + f, steps=self.MAX_STEPS)
            t_max.append(time.perf_counter() - t0)
        t_pipeline = time.perf_counter() - t_start

        rule = BayesParams(window=3, threshold=0.0)
        online = record_segments(records[0])[-self.ONLINE_WINDOWS :]
        o_probs, _, latencies, _, _ = stream_record(model, online, rule, self.tracer)

        self.last = {"model": model, "train": train, "score": score, "probs": probs,
                     "attributions": attributions, "online_probs": o_probs}
        out = {
            "pipeline_s": t_pipeline,
            "ingest_records_per_s": self.RECORDS / statistics.median(t_ingest),
            "train_windows_per_s": self.TRAIN / t_train,
            "score_windows_per_s": self.SCORE / t_score,
            "attribute_windows_per_s": 1.0 / statistics.median(t_attr),
            "maximize_steps_per_s": self.MAX_STEPS / statistics.median(t_max),
        }
        out.update(self.online_metrics(latencies))
        return out

    def verify(self) -> None:
        L = self.last
        model = L["model"]
        rng = np.random.default_rng([self.seed, 7])
        self.check("probabilities", oracles.check_probabilities, L["probs"], "scored windows")
        self.check("training history", oracles.require,
                   bool(np.all(np.isfinite(model.history.train_loss + model.history.val_loss))),
                   "non-finite loss in the training history")

        # L03 against a direct correlation, on the real L03 input of one window
        x = np.stack([s.data for s in L["score"][:1]])[:, :, :, None]
        h = x
        for layer in model.layers[:3]:
            h = layer.forward(h, train=False)
        l03 = model.layers[3]
        out = l03.forward(h, train=False)
        T = h.shape[1]
        spans = [(0, 80), (T // 2 - 40, T // 2 + 40), (T - 80, T)]
        self.check("L03 forward", oracles.check_conv_forward, out, h, l03.kernel, l03.bias, spans, "L03")

        # directional finite differences of <w, L03(x)> in x and in the kernel
        w = rng.standard_normal(out.shape)
        l03.forward(h, train=True)
        dx = l03.backward(w)
        dk = l03.d_kernel.copy()
        v = rng.standard_normal(h.shape)
        self.check("L03 input gradient", oracles.check_directional_derivative,
                   lambda z: float(np.sum(w * l03.forward(z, train=False))), h, v, float(np.sum(dx * v)), "L03 dx")
        kernel0 = l03.kernel.copy()
        u = rng.standard_normal(kernel0.shape)

        def along_kernel(kz):
            l03.kernel[...] = kz
            return float(np.sum(w * l03.forward(h, train=False)))

        try:
            self.check("L03 kernel gradient", oracles.check_directional_derivative,
                       along_kernel, kernel0, u, float(np.sum(dk * u)), "L03 dkernel")
        finally:
            l03.kernel[...] = kernel0

        # batched and one-at-a-time scoring agree on the pre-sigmoid output
        xb = np.stack([s.data for s in L["score"][:3]])[:, :, :, None]

        def logits(z):
            for layer in model.layers[:-1]:
                z = layer.forward(z, train=False)
            return z[:, 0]

        batched = logits(xb)
        single = np.array([logits(xb[i : i + 1])[0] for i in range(xb.shape[0])])
        self.check("batched vs single", oracles.check_close, batched, single, "pre-sigmoid output", 1e-9, 1e-9)

        # DeepLIFT summation: on the logit always, on the probability
        # when the output delta is not negligible (the net saturates)
        for i, (s, att) in enumerate(zip(L["score"], L["attributions"])):
            if i < 2:
                xs = s.data[None, :, :, None]
                m, out_l, ref_l = propagate_multipliers(model.layers[:-1], xs, np.zeros_like(xs))
                self.check("DeepLIFT logit summation", oracles.check_summation, m * xs, out_l - ref_l, s.record_id)
            delta = att.probability - att.reference_probability
            if abs(delta) > 1e-6:
                self.check("DeepLIFT summation", oracles.check_summation, att.shap, delta, s.record_id)
            self.check("probabilities", oracles.check_probabilities, [att.probability, att.reference_probability], "deeplift")

        # The replay is timed only: the saturated network streams
        # probabilities of 0.0 or near it and equal decisions, which no
        # comparison could tell from a wrong stream.  Desk-pipeline and
        # online-stream check the stream; "batched vs single" above
        # checks batch-1 scoring of this network.
        self.check("probabilities", oracles.check_probabilities, L["online_probs"], "online replay")


# ====================================================================
# online-stream
# ====================================================================


class OnlineStream(Workload):
    """Held-out records replayed window by window through a desk model.

    Set-up takes the offline steps a user takes before deploying: a
    synthetic 10-patient store, 1 epoch of desk training, the bayes
    rule from optimize, and first-layer maximization to inspect the
    filters.  Each round ingests 4 held-out 256 Hz CSV records,
    streams their 276 windows and attributes each record's alarm window.
    """

    name = "online-stream"
    PATIENTS = 10
    HELD_OUT = 4
    EPOCHS = 1
    MAXIMIZE_STEPS = 80  # the CLI default
    ONLINE_WINDOWS = HELD_OUT * 69
    ops_per_round = 1 + ONLINE_WINDOWS + HELD_OUT  # ingest, stream, alarm attributions

    def setup(self) -> None:
        seed = str(self.seed)
        store, run = self.path("store"), self.path("run")
        self.weights = os.path.join(run, "weights.bin")
        run_cli(["prepare", "--out", store, "--seed", seed, "--patients", str(self.PATIENTS),
                 "--records-per-patient", "1"])
        records, plan, _ = load_store(store)
        n_train = DeskPipeline._train_windows(records, plan)
        t_train = run_cli(["train", "--data", store, "--out", run, "--seed", seed,
                           "--epochs", str(self.EPOCHS), "--patience", str(self.EPOCHS)])
        run_cli(["optimize", "--data", store, "--weights", self.weights, "--out", self.path("opt"),
                         "--method", "bayes"])
        t_max = run_cli(["maximize", "--weights", self.weights, "--out", self.path("max"), "--seed", seed,
                         "--steps", str(self.MAXIMIZE_STEPS)])
        with open(self.path("opt", "params.json")) as fh:
            params = json.load(fh)
        self.rule = BayesParams(window=params["window"], threshold=params["threshold"])
        self.model = load_model(self.weights)
        self.setup_metrics = {
            "train_windows_per_s": n_train * self.EPOCHS / t_train,
            "maximize_steps_per_s": self.model.layers[0].f_out * self.MAXIMIZE_STEPS / t_max,
        }
        os.makedirs(self.path("csv"))
        sp = SynthParams(n_patients=self.PATIENTS + self.HELD_OUT, records_per_patient=1, seed=self.seed)
        manifest = []
        for p in range(self.PATIENTS, self.PATIENTS + self.HELD_OUT):
            rec = generate_record(sp, p, 0)
            fname = f"{rec.record_id}.csv"
            write_csv_record(self.path("csv", fname), rec.samples)
            manifest.append({"patient_id": rec.patient_id, "file": fname, "fs": 256, "onset_sample": rec.onset_sample})
        with open(self.path("csv", "manifest.json"), "w") as fh:
            json.dump(manifest, fh)

    def round(self, k: int) -> dict:
        t_start = time.perf_counter()
        t0 = time.perf_counter()
        records = ingest_manifest(self.path("csv", "manifest.json"))
        t_ingest = time.perf_counter() - t0
        latencies, scoring = [], []
        streams = []
        t_attr = []
        for rec in records:
            segs = record_segments(rec)
            probs, dec, total, score, _ = stream_record(self.model, segs, self.rule, self.tracer)
            latencies += total
            scoring += score
            t0 = time.perf_counter()
            att = deeplift(self.model, segs[alarm_window(dec)].data)
            t_attr.append(time.perf_counter() - t0)
            streams.append((rec, probs, dec, att))
        t_pipeline = time.perf_counter() - t_start
        self.last = streams
        out = {
            "pipeline_s": t_pipeline,
            "ingest_records_per_s": len(records) / t_ingest,
            "train_windows_per_s": self.setup_metrics["train_windows_per_s"],
            "score_windows_per_s": len(scoring) / sum(scoring),
            "attribute_windows_per_s": 1.0 / statistics.median(t_attr),
            "maximize_steps_per_s": self.setup_metrics["maximize_steps_per_s"],
        }
        out.update(self.online_metrics(latencies))
        return out

    def verify(self) -> None:
        for rec, probs, dec, att in self.last:
            series = predict_series(self.model, rec)
            self.check("online stream", oracles.check_stream, probs, series.probs, dec,
                       bayes_decide(probs, self.rule), self.rule.window, self.rule.threshold, rec.record_id)
            self.check("probabilities", oracles.check_probabilities, probs, rec.record_id)
            delta = att.probability - att.reference_probability
            if abs(delta) > 1e-6:
                self.check("alarm attribution summation", oracles.check_summation, att.shap, delta, rec.record_id)


WORKLOADS = {w.name: w for w in (DeskPipeline, FullK131, OnlineStream)}
