"""Command line pipeline: prepare, train, evaluate, optimize,
aggregate, maximize, attribute.

Every command writes its artifacts atomically into --out together
with a run_config.json echoing the resolved arguments, so a run can
be reproduced from its output directory alone.  Errors leave a
machine-readable JSON line on stderr and a nonzero exit code.
"""

from __future__ import annotations

import argparse
import io
import json
import logging
import os
import sys

import numpy as np
import scipy

from seiznet import __version__
from seiznet.aggregation import (
    Rule,
    decide,
    grid_search,
    seizure_counts,
    seizure_eval,
    seizure_metrics,
)
from seiznet.data.records import EegRecord, record_segments
from seiznet.data.splits import split_patients
from seiznet.data.synth import SynthParams, generate_corpus
from seiznet.errors import DataError, SeizNetError
from seiznet.fsio import atomic_write_json, atomic_write_text, ensure_dir
from seiznet.interpret import deeplift, main_frequencies, rank_filters, welch_psd
from seiznet.metrics import fold_auc_summary, metric_set, prob_histogram
from seiznet.model import (
    ModelConfig,
    build,
    fit,
    load_model,
    predict_series,
    sample_validation_split,
    save_model,
    segments_to_arrays,
)
from seiznet.render import (
    attribution_csv,
    grid_csv,
    histogram_csv,
    maximized_report_csv,
    render_attribution,
    render_maximized,
    spectra_csv,
    timeline_csv,
)
from seiznet.store import ingest_manifest, load_store, save_store

log = logging.getLogger(__name__)

OUT_ROOT_ENV = "SEIZNET_OUT_ROOT"
VALIDATION_SAMPLE_FRACTION = 0.1
# Thread counts that change BLAS summation order, and with it the last
# bits of trained weights; recorded in every run_config.json.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# Failures of input, files or arguments; any other exception also ends
# in the JSON error line, after its traceback is logged.
EXPECTED_ERRORS = (SeizNetError, OSError, ValueError, KeyError)


def _resolve_out(path: str) -> str:
    root = os.environ.get(OUT_ROOT_ENV)
    if root and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


def _write_run_config(out_dir: str, command: str, args: argparse.Namespace) -> None:
    payload = {
        k: v
        for k, v in vars(args).items()
        if k not in ("handler", "command") and not k.startswith("_")
    }
    environment = {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }
    atomic_write_json(
        os.path.join(out_dir, "run_config.json"),
        {
            "command": command,
            "version": __version__,
            "args": payload,
            "environment": environment,
        },
    )


def _sorted_records(records: list[EegRecord], patient_ids) -> list[EegRecord]:
    wanted = set(patient_ids)
    subset = [r for r in records if r.patient_id in wanted]
    return sorted(subset, key=lambda r: (r.patient_id, r.record_id))


def _labeled_segments(records: list[EegRecord], patient_ids) -> list:
    segs = []
    for rec in _sorted_records(records, patient_ids):
        segs.extend(record_segments(rec, labeled_only=True))
    return segs


def _opt(v) -> str:
    return "" if v is None else f"{v:.6f}"


def cmd_prepare(args: argparse.Namespace) -> None:
    out = _resolve_out(args.out)
    ensure_dir(out)
    if args.manifest:
        records = ingest_manifest(args.manifest)
        source = {"kind": "manifest", "path": os.path.abspath(args.manifest)}
    else:
        params = SynthParams(
            n_patients=args.patients,
            records_per_patient=args.records_per_patient,
            seed=args.seed,
        )
        records = generate_corpus(params)
        source = {"kind": "synthetic", "params": params.__dict__.copy()}
    patient_ids = sorted({r.patient_id for r in records})
    plan = split_patients(patient_ids, seed=args.seed)
    save_store(out, records, plan, source)
    _write_run_config(out, "prepare", args)
    log.info(
        "prepared %d records from %d patients (%d test, %d train)",
        len(records),
        len(patient_ids),
        len(plan.test_patients),
        len(plan.train_patients),
    )


def _model_config(args: argparse.Namespace) -> ModelConfig:
    overrides = {"seed": args.seed}
    if args.kernel is not None:
        overrides["time_kernel"] = args.kernel
    if args.epochs is not None:
        overrides["max_epochs"] = args.epochs
    if args.patience is not None:
        overrides["patience"] = args.patience
    if args.filters is not None:
        overrides["filters"] = tuple(int(f) for f in args.filters.split(","))
    if args.profile == "desk":
        return ModelConfig.desk(**overrides)
    return ModelConfig.full(**overrides)


def cmd_train(args: argparse.Namespace) -> None:
    out = _resolve_out(args.out)
    ensure_dir(out)
    records, plan, _ = load_store(args.data)
    config = _model_config(args)
    model = build(config)
    segs = _labeled_segments(records, plan.train_patients)
    train_segs, val_segs = sample_validation_split(
        segs, VALIDATION_SAMPLE_FRACTION, seed=config.seed
    )
    log.info(
        "training on %d segments, validating on %d (%d patients held out for test)",
        len(train_segs),
        len(val_segs),
        len(plan.test_patients),
    )
    fit(model, train_segs, val_segs)
    save_model(model, os.path.join(out, "weights.bin"))
    buf = io.StringIO()
    buf.write("epoch,train_loss,val_loss\n")
    for i, (tr, vl) in enumerate(
        zip(model.history.train_loss, model.history.val_loss), start=1
    ):
        buf.write(f"{i},{tr:.9e},{vl:.9e}\n")
    atomic_write_text(os.path.join(out, "history.csv"), buf.getvalue())
    _write_run_config(out, "train", args)
    log.info(
        "stopped at epoch %d, best epoch %d",
        model.history.stopped_epoch,
        model.history.best_epoch,
    )


def cmd_evaluate(args: argparse.Namespace) -> None:
    out = _resolve_out(args.out)
    ensure_dir(out)
    records, plan, _ = load_store(args.data)
    model = load_model(args.weights)
    thresholds = [float(t) for t in args.thresholds.split(",")]
    folds = []
    for fold in plan.folds:
        segs = _labeled_segments(records, fold.test)
        x, y = segments_to_arrays(segs)
        folds.append((y, model.predict_batch(x)))
    auc_mean, auc_std, per_fold = fold_auc_summary(folds)
    labels = np.concatenate([y for y, _ in folds])
    probs = np.concatenate([p for _, p in folds])
    metrics = {f"{t:g}": metric_set(labels, probs, t).to_dict() for t in thresholds}
    atomic_write_json(
        os.path.join(out, "metrics.json"),
        {
            "time_kernel": model.config.time_kernel,
            "auc": {"mean": auc_mean, "std": auc_std, "per_fold": per_fold},
            "thresholds": metrics,
            "n_windows": int(labels.size),
        },
    )
    buf = io.StringIO()
    buf.write(
        "threshold,accuracy,sensitivity,specificity,precision,f1,tp,fp,tn,fn\n"
    )
    for t in thresholds:
        m = metric_set(labels, probs, t)
        c = m.counts
        buf.write(
            f"{t:g},{_opt(m.accuracy)},{_opt(m.sensitivity)},"
            f"{_opt(m.specificity)},{_opt(m.precision)},{_opt(m.f1)},"
            f"{c.tp},{c.fp},{c.tn},{c.fn}\n"
        )
    atomic_write_text(os.path.join(out, "metrics.csv"), buf.getvalue())
    counts, edges = prob_histogram(probs)
    histogram_csv(counts, edges, os.path.join(out, "histogram.csv"))
    _write_run_config(out, "evaluate", args)
    log.info("cross-validated AUC %.4f +/- %.4f", auc_mean or 0.0, auc_std or 0.0)


def _fold_test_series(records, plan, model) -> list:
    series = []
    for fold in plan.folds:
        for rec in _sorted_records(records, fold.test):
            series.append(predict_series(model, rec))
    return series


def cmd_optimize(args: argparse.Namespace) -> None:
    out = _resolve_out(args.out)
    ensure_dir(out)
    records, plan, _ = load_store(args.data)
    model = load_model(args.weights)
    series = _fold_test_series(records, plan, model)
    grid = grid_search(series, args.method)
    grid_csv(grid, os.path.join(out, "grid.csv"))
    atomic_write_json(os.path.join(out, "params.json"), grid.to_dict())
    _write_run_config(out, "optimize", args)
    log.info(
        "best %s params: window/lag %d, threshold %g (F1 %.4f over %d series)",
        grid.method,
        grid.best_window,
        grid.best_threshold,
        grid.best_f1,
        grid.n_series,
    )


def _rule(args: argparse.Namespace) -> Rule:
    if args.params:
        with open(args.params) as fh:
            return Rule.from_dict(json.load(fh), args.params)
    if args.method is None or args.window is None or args.threshold is None:
        raise DataError(
            "aggregate needs --params or all of --method/--window/--threshold"
        )
    return Rule(args.method, args.window, args.threshold)


def cmd_aggregate(args: argparse.Namespace) -> None:
    out = _resolve_out(args.out)
    ensure_dir(out)
    rule = _rule(args)
    records, plan, _ = load_store(args.data)
    model = load_model(args.weights)
    timeline_dir = os.path.join(out, "timelines")
    ensure_dir(timeline_dir)
    outcomes = []
    skipped = []
    for rec in _sorted_records(records, plan.test_patients):
        series = predict_series(model, rec)
        decisions = decide(series.probs, rule)
        timeline_csv(
            series, decisions, os.path.join(timeline_dir, f"{rec.record_id}.csv")
        )
        outcome = seizure_eval(decisions, series.parts, rec.record_id)
        if outcome is None:
            skipped.append(rec.record_id)
        else:
            outcomes.append(outcome)
    if not outcomes:
        raise DataError("no scorable records among the test patients")
    m = seizure_metrics(outcomes)
    counts = seizure_counts(outcomes)
    params = rule.to_dict()
    atomic_write_json(
        os.path.join(out, "metrics.json"),
        {
            "method": params.pop("method"),
            "params": params,
            "n_records": len(outcomes),
            "skipped_records": skipped,
            "seizure_metrics": m.to_dict(),
        },
    )
    buf = io.StringIO()
    buf.write("record_id,detected_in_ictal,false_positive_in_interictal,first_ictal_idx,first_interictal_idx\n")
    for o in outcomes:
        buf.write(
            f"{o.record_id},{int(o.detected_in_ictal)},"
            f"{int(o.false_positive_in_interictal)},"
            f"{'' if o.first_detection.get('ictal') is None else o.first_detection['ictal']},"
            f"{'' if o.first_detection.get('interictal') is None else o.first_detection['interictal']}\n"
        )
    atomic_write_text(os.path.join(out, "outcomes.csv"), buf.getvalue())
    _write_run_config(out, "aggregate", args)
    log.info(
        "seizure metrics over %d records: sensitivity %s, F1 %s (tp %d fp %d)",
        len(outcomes),
        _opt(m.sensitivity),
        _opt(m.f1),
        counts.tp,
        counts.fp,
    )


def cmd_maximize(args: argparse.Namespace) -> None:
    out = _resolve_out(args.out)
    ensure_dir(out)
    model = load_model(args.weights)
    results = rank_filters(
        model,
        args.target,
        init_amp=args.init_amp,
        seed=args.seed,
        steps=args.steps,
    )
    spectra = {}
    freqs_per_channel = []
    for res in results:
        freqs = []
        for c in range(res.signal.shape[1]):
            spectrum = welch_psd(res.signal[:, c])
            spectra[(res.filter_idx, c)] = spectrum
            freqs.append(main_frequencies(spectrum))
        freqs_per_channel.append(freqs)
    maximized_report_csv(results, freqs_per_channel, os.path.join(out, "report.csv"))
    render_maximized(results, freqs_per_channel, os.path.join(out, "panels.svg"))
    spectra_csv(spectra, os.path.join(out, "spectra.csv"))
    _write_run_config(out, "maximize", args)
    log.info(
        "maximized %d filters at %s activation (%d dead)",
        len(results),
        args.target,
        sum(r.dead_filter for r in results),
    )


def cmd_attribute(args: argparse.Namespace) -> None:
    out = _resolve_out(args.out)
    ensure_dir(out)
    records, _, _ = load_store(args.data)
    matches = [r for r in records if r.record_id == args.record]
    if not matches:
        raise DataError(f"record {args.record!r} not in store")
    segs = record_segments(matches[0], labeled_only=False)
    if not 0 <= args.window < len(segs):
        raise DataError(
            f"window {args.window} out of range (record has {len(segs)} windows)"
        )
    seg = segs[args.window]
    model = load_model(args.weights)
    attribution = deeplift(model, seg.data)
    render_attribution(seg.data, attribution, os.path.join(out, "overlay.svg"))
    attribution_csv(attribution, os.path.join(out, "shap.csv"))
    atomic_write_json(
        os.path.join(out, "attribution.json"),
        {
            "record_id": args.record,
            "window_idx": args.window,
            "part": seg.part,
            "probability": attribution.probability,
            "reference_probability": attribution.reference_probability,
            "summation_gap": attribution.summation_gap,
            "normalization": attribution.normalization,
        },
    )
    _write_run_config(out, "attribute", args)
    log.info(
        "attributed window %d (%s part): p=%.6f",
        args.window,
        seg.part,
        attribution.probability,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seiznet",
        description="Interpretable convolutional seizure detection pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="generate or ingest a record store")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--manifest", help="JSON manifest of raw CSV records")
    p.add_argument("--patients", type=int, default=40)
    p.add_argument("--records-per-patient", type=int, default=2)
    p.set_defaults(handler=cmd_prepare)

    p = sub.add_parser("train", help="train a model on the training patients")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--profile", choices=["desk", "full"], default="desk")
    p.add_argument("--kernel", type=int, help="first-block time kernel length")
    p.add_argument("--epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--filters", help="per-block filter counts, e.g. 4,8,8")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("evaluate", help="segment-level cross-validated metrics")
    p.add_argument("--data", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--thresholds", default="0.15,0.85")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("optimize", help="grid-search aggregation parameters")
    p.add_argument("--data", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", choices=["bayes", "diff"], required=True)
    p.set_defaults(handler=cmd_optimize)

    p = sub.add_parser("aggregate", help="seizure-level metrics on test patients")
    p.add_argument("--data", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--params", help="params.json from optimize")
    p.add_argument("--method", choices=["bayes", "diff"])
    p.add_argument("--window", type=int, help="window (bayes) or lag (diff)")
    p.add_argument("--threshold", type=float)
    p.set_defaults(handler=cmd_aggregate)

    p = sub.add_parser("maximize", help="grow inputs that excite each filter")
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--target", choices=["first", "last_block"], default="first")
    p.add_argument("--init-amp", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=80)
    p.set_defaults(handler=cmd_maximize)

    p = sub.add_parser("attribute", help="per-sample attribution of one window")
    p.add_argument("--data", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--record", required=True)
    p.add_argument("--window", type=int, required=True)
    p.set_defaults(handler=cmd_attribute)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    try:
        args.handler(args)
    except Exception as exc:
        if not isinstance(exc, EXPECTED_ERRORS):
            log.exception("%s failed unexpectedly", args.command)
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
