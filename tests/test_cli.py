"""End-to-end tests of the command line pipeline.

One module-scoped fixture drives prepare -> train -> evaluate ->
optimize -> aggregate -> maximize -> attribute through cli.main with
a deliberately small model, then the tests inspect the artifacts.
"""

import json
import os

import numpy as np
import pytest
import scipy

from seiznet import cli
from seiznet.cli import OUT_ROOT_ENV, main

TINY_TRAIN = ["--kernel", "9", "--filters", "2,2,2", "--epochs", "2", "--patience", "2"]


def run_ok(argv):
    assert main(argv) == 0


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    store = str(root / "store")
    train = str(root / "train")
    run_ok(
        ["prepare", "--out", store, "--seed", "11", "--patients", "10",
         "--records-per-patient", "1"]
    )
    run_ok(["train", "--data", store, "--out", train, "--seed", "11"] + TINY_TRAIN)
    weights = os.path.join(train, "weights.bin")
    eval_dir = str(root / "eval")
    run_ok(["evaluate", "--data", store, "--weights", weights, "--out", eval_dir])
    opt_dir = str(root / "opt")
    run_ok(
        ["optimize", "--data", store, "--weights", weights, "--out", opt_dir,
         "--method", "bayes"]
    )
    agg_dir = str(root / "agg")
    run_ok(
        ["aggregate", "--data", store, "--weights", weights, "--out", agg_dir,
         "--params", os.path.join(opt_dir, "params.json")]
    )
    max_dir = str(root / "max")
    run_ok(
        ["maximize", "--weights", weights, "--out", max_dir, "--seed", "2",
         "--target", "first", "--steps", "10"]
    )
    attr_dir = str(root / "attr")
    run_ok(
        ["attribute", "--data", store, "--weights", weights, "--out", attr_dir,
         "--record", "p000r0", "--window", "50"]
    )
    return {
        "root": root,
        "store": store,
        "train": train,
        "weights": weights,
        "eval": eval_dir,
        "opt": opt_dir,
        "agg": agg_dir,
        "max": max_dir,
        "attr": attr_dir,
    }


class TestPipelineArtifacts:
    def test_prepare_store_layout(self, pipeline):
        store = pipeline["store"]
        manifest = json.loads(open(os.path.join(store, "records.json")).read())
        assert len(manifest["records"]) == 10
        assert manifest["source"]["kind"] == "synthetic"
        assert os.path.exists(os.path.join(store, "splits.json"))
        assert os.path.exists(os.path.join(store, "records", "p000r0.npy"))

    def test_train_artifacts(self, pipeline):
        train = pipeline["train"]
        assert os.path.getsize(pipeline["weights"]) > 0
        lines = open(os.path.join(train, "history.csv")).read().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert 2 <= len(lines) <= 3
        epoch, tr, vl = lines[1].split(",")
        assert epoch == "1"
        assert float(tr) > 0 and float(vl) > 0

    def test_evaluate_metrics(self, pipeline):
        payload = json.loads(
            open(os.path.join(pipeline["eval"], "metrics.json")).read()
        )
        assert payload["time_kernel"] == 9
        assert len(payload["auc"]["per_fold"]) == 5
        assert 0.0 <= payload["auc"]["mean"] <= 1.0
        assert set(payload["thresholds"]) == {"0.15", "0.85"}
        assert payload["n_windows"] == 8 * 46  # 8 train patients, 46 labeled windows
        csv_lines = open(os.path.join(pipeline["eval"], "metrics.csv")).read().splitlines()
        assert len(csv_lines) == 3
        hist = open(os.path.join(pipeline["eval"], "histogram.csv")).read().splitlines()
        assert len(hist) == 21
        counts = sum(int(line.split(",")[2]) for line in hist[1:])
        assert counts == payload["n_windows"]

    def test_optimize_outputs(self, pipeline):
        params = json.loads(open(os.path.join(pipeline["opt"], "params.json")).read())
        assert params["method"] == "bayes"
        assert params["window"] in range(1, 24)
        assert 0.0 <= params["f1"] <= 1.0
        grid = open(os.path.join(pipeline["opt"], "grid.csv")).read().splitlines()
        assert grid[0].startswith("window,")
        assert len(grid) == 24  # header + windows 1..23

    def test_aggregate_outputs(self, pipeline):
        payload = json.loads(open(os.path.join(pipeline["agg"], "metrics.json")).read())
        assert payload["method"] == "bayes"
        assert payload["n_records"] == 2  # 2 test patients, 1 record each
        assert payload["skipped_records"] == []
        outcome_lines = open(
            os.path.join(pipeline["agg"], "outcomes.csv")
        ).read().splitlines()
        assert len(outcome_lines) == 3
        timelines = os.listdir(os.path.join(pipeline["agg"], "timelines"))
        assert len(timelines) == 2
        body = open(
            os.path.join(pipeline["agg"], "timelines", sorted(timelines)[0])
        ).read().splitlines()
        assert body[0] == "window_idx,part,probability,decision"
        assert len(body) == 1 + 3 * 23  # 3 available parts

    def test_maximize_outputs(self, pipeline):
        report = open(os.path.join(pipeline["max"], "report.csv")).read().splitlines()
        assert len(report) == 3  # header + 2 first-block filters
        assert os.path.exists(os.path.join(pipeline["max"], "panels.svg"))
        spectra = open(os.path.join(pipeline["max"], "spectra.csv")).read().splitlines()
        assert spectra[0] == "filter_idx,channel,freq_hz,power"
        # 2 filters x 4 channels x 129 one-hertz bins
        assert len(spectra) == 1 + 2 * 4 * 129

    def test_attribute_outputs(self, pipeline):
        payload = json.loads(
            open(os.path.join(pipeline["attr"], "attribution.json")).read()
        )
        assert payload["record_id"] == "p000r0"
        assert payload["window_idx"] == 50
        assert payload["part"] == "ictal"
        assert 0.0 <= payload["probability"] <= 1.0
        assert payload["summation_gap"] < 1e-6
        shap = np.loadtxt(
            os.path.join(pipeline["attr"], "shap.csv"), delimiter=",", skiprows=1
        )
        assert shap.shape == (1280, 4)
        assert os.path.exists(os.path.join(pipeline["attr"], "overlay.svg"))

    def test_run_config_echoes_arguments(self, pipeline):
        cfg = json.loads(
            open(os.path.join(pipeline["train"], "run_config.json")).read()
        )
        assert cfg["command"] == "train"
        assert cfg["args"]["seed"] == 11
        assert cfg["args"]["kernel"] == 9
        assert cfg["args"]["filters"] == "2,2,2"
        assert "version" in cfg
        env = cfg["environment"]
        assert env["numpy"] == np.__version__
        assert env["scipy"] == scipy.__version__
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            assert env[var] == os.environ.get(var)


class TestPrepareDeterminism:
    def test_identical_bytes_across_runs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            run_ok(
                ["prepare", "--out", str(out), "--seed", "21", "--patients", "10",
                 "--records-per-patient", "1"]
            )
        for name in ("records.json", "splits.json", "records/p003r0.npy"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_changes_store(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_ok(["prepare", "--out", str(a), "--seed", "21", "--patients", "10",
                "--records-per-patient", "1"])
        run_ok(["prepare", "--out", str(b), "--seed", "22", "--patients", "10",
                "--records-per-patient", "1"])
        assert (a / "records/p000r0.npy").read_bytes() != (
            b / "records/p000r0.npy"
        ).read_bytes()


class TestOutRoot:
    def test_relative_out_lands_under_env_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_ROOT_ENV, str(tmp_path))
        run_ok(["prepare", "--out", "store", "--seed", "5", "--patients", "10",
                "--records-per-patient", "1"])
        assert (tmp_path / "store" / "records.json").exists()

    def test_absolute_out_ignores_env_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_ROOT_ENV, str(tmp_path / "elsewhere"))
        out = tmp_path / "direct"
        run_ok(["prepare", "--out", str(out), "--seed", "5", "--patients", "10",
                "--records-per-patient", "1"])
        assert (out / "records.json").exists()
        assert not (tmp_path / "elsewhere").exists()


class TestErrorPaths:
    def expect_error(self, argv, capsys, fragment: str):
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()[-1]
        payload = json.loads(err)
        assert "error" in payload
        assert fragment in payload["message"]
        return payload

    def test_train_on_missing_store(self, tmp_path, capsys):
        self.expect_error(
            ["train", "--data", str(tmp_path / "nope"), "--out",
             str(tmp_path / "out"), "--seed", "1"],
            capsys,
            "not a record store",
        )

    def test_attribute_unknown_record(self, pipeline, tmp_path, capsys):
        self.expect_error(
            ["attribute", "--data", pipeline["store"], "--weights",
             pipeline["weights"], "--out", str(tmp_path), "--record", "zzz",
             "--window", "0"],
            capsys,
            "not in store",
        )

    def test_attribute_window_out_of_range(self, pipeline, tmp_path, capsys):
        self.expect_error(
            ["attribute", "--data", pipeline["store"], "--weights",
             pipeline["weights"], "--out", str(tmp_path), "--record", "p000r0",
             "--window", "999"],
            capsys,
            "out of range",
        )

    def test_aggregate_without_params(self, pipeline, tmp_path, capsys):
        self.expect_error(
            ["aggregate", "--data", pipeline["store"], "--weights",
             pipeline["weights"], "--out", str(tmp_path)],
            capsys,
            "--method",
        )

    def test_bayes_params_with_lag_name_the_file(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"method": "bayes", "lag": 3, "threshold": 1.0}))
        self.expect_error(
            ["aggregate", "--data", str(tmp_path / "store"), "--weights",
             str(tmp_path / "weights.bin"), "--out", str(tmp_path / "out"),
             "--params", str(params)],
            capsys,
            f"{params}: bayes rule lacks 'window'",
        )

    def test_unexpected_exception_gets_the_error_line(self, tmp_path, capsys, monkeypatch):
        def broken(params):
            raise RuntimeError("synthesis broke")

        monkeypatch.setattr(cli, "generate_corpus", broken)
        payload = self.expect_error(
            ["prepare", "--out", str(tmp_path / "store"), "--seed", "1"],
            capsys,
            "synthesis broke",
        )
        assert payload["error"] == "RuntimeError"

    def test_evaluate_with_bad_weights(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "weights.bin"
        bad.write_bytes(b"not a weight file at all")
        assert main(
            ["evaluate", "--data", pipeline["store"], "--weights", str(bad),
             "--out", str(tmp_path / "out")]
        ) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ModelIOError"
