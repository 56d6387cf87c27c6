"""Spans recorded around calls into seiznet, for the traced run.

The program carries no tracing of its own.  Instead, `Tracer.install`
swaps each instrumented public function (in its defining module and in
every seiznet module that imported it by name) and each layer method
(at class level) for a wrapper that records a span: name, start, end,
the enclosing span, and a few attributes such as the batch size.
`Tracer.uninstall` restores the originals, so untraced rounds run the
unmodified program.  Spans stay in memory until `per_layer_metrics`
reduces them.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import weakref

CONV = ("L00", "L03", "L07", "L10", "L14", "L17")
BATCHNORM = ("L01", "L04", "L08", "L11", "L15", "L18")
MAXPOOL = ("L06", "L13", "L20")
NN_BATCH = 32
CLI_STAGES = ("prepare", "train", "evaluate", "optimize", "aggregate", "maximize", "attribute")

# (module, attribute, span name); a callable span name derives it from
# the call's arguments.
FUNCTIONS = (
    ("seiznet.data.synth", "generate_record", "synth.record"),
    ("seiznet.data.records", "load_record", "records.load_record"),
    ("seiznet.data.records", "resample_to_256", "records.resample"),
    ("seiznet.data.records", "windows", "records.windows"),
    ("seiznet.store", "save_store", "store.save"),
    ("seiznet.store", "load_store", "store.load"),
    ("seiznet.nn.loss", "bce_loss", "loss.bce"),
    ("seiznet.nn.loss", "l2_penalty", "loss.l2_penalty"),
    ("seiznet.nn.loss", "add_l2_gradients", "loss.add_l2"),
    ("seiznet.nn.loss", "sgd_step", "loss.sgd_step"),
    ("seiznet.model", "fit", "model.fit"),
    ("seiznet.model", "_snapshot", "model.snapshot"),
    ("seiznet.model", "predict_series", "model.predict_series"),
    ("seiznet.model", "save_model", "model.save"),
    ("seiznet.model", "load_model", "model.load"),
    ("seiznet.aggregation", "grid_search", lambda a, kw: f"aggregation.grid_{kw.get('method', a[1] if len(a) > 1 else '?')}"),
    ("seiznet.aggregation", "seizure_eval", "aggregation.seizure_eval"),
    ("seiznet.metrics", "roc_auc", "metrics.roc_auc"),
    ("seiznet.metrics", "metric_set", "metrics.metric_set"),
    ("seiznet.interpret", "deeplift", "interpret.deeplift"),
    ("seiznet.interpret", "_ascend_prefix", "interpret.ascent_step"),
    ("seiznet.interpret", "welch_psd", "interpret.welch_psd"),
    ("seiznet.render", "render_attribution", "render.svg"),
    ("seiznet.render", "render_maximized", "render.svg"),
    ("seiznet.render", "attribution_csv", "render.csv"),
    ("seiznet.render", "maximized_report_csv", "render.csv"),
    ("seiznet.render", "grid_csv", "render.csv"),
    ("seiznet.render", "timeline_csv", "render.csv"),
    ("seiznet.render", "histogram_csv", "render.csv"),
    ("seiznet.render", "spectra_csv", "render.csv"),
) + tuple(("seiznet.cli", f"cmd_{s}", f"cli.{s}") for s in CLI_STAGES)

LAYER_METHODS = ("forward", "backward", "adjoint")


def _per_layer_names() -> list[tuple[str, str]]:
    names = []
    for kind, layers in (("Conv", CONV), ("BatchNorm", BATCHNORM), ("MaxPoolTime", MAXPOOL)):
        for li in layers:
            for m in ("fwd", "bwd", "infer"):
                names.append((f"nn.{li}-{kind}.{m}_ms", "ms"))
            if kind == "Conv":
                names += [
                    (f"nn.{li}-Conv.adjoint_ms", "ms"),
                    (f"nn.{li}-Conv.b1_ms", "ms"),
                    (f"nn.{li}-Conv.gflop_per_s", "GFLOP/s"),
                ]
    names += [(f"nn.other.{m}_ms", "ms") for m in ("fwd", "bwd", "infer")]
    names += [(f"loss.{n}_ms", "ms") for n in ("bce", "l2_penalty", "add_l2", "sgd_step")]
    names += [(f"model.{n}_ms", "ms") for n in ("validate", "snapshot", "predict_batch", "predict_series", "save", "load")]
    names += [(f"model.{n}", "count") for n in ("sgd_steps", "windows_trained", "windows_scored")]
    names += [(f"records.{n}_ms", "ms") for n in ("load_record", "resample", "windows")]
    names += [("synth.record_ms", "ms"), ("store.save_ms", "ms"), ("store.load_ms", "ms")]
    names += [(f"aggregation.{n}_ms", "ms") for n in ("grid_bayes", "grid_diff", "seizure_eval")]
    names += [("aggregation.online_update_us", "us"), ("aggregation.grid_cells", "count")]
    names += [("metrics.roc_auc_ms", "ms"), ("metrics.metric_set_ms", "ms")]
    names += [(f"interpret.{n}_ms", "ms") for n in ("deeplift", "ascent_step", "welch_psd")]
    names += [("interpret.ascent_steps", "count"), ("render.svg_ms", "ms"), ("render.csv_ms", "ms")]
    names += [(f"cli.{s}_s", "s") for s in CLI_STAGES]
    names += [
        ("trace.untraced_round_s", "s"),
        ("trace.traced_round_s", "s"),
        ("trace.overhead_pct", "%"),
    ]
    return names


PER_LAYER = _per_layer_names()


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent, attrs):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = attrs

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []
        self._layer_index: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------ recording

    def open(self, name: str, **attrs) -> Span:
        span = Span(name, time.perf_counter(), self._stack[-1] if self._stack else None, attrs)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def record(self, name: str, seconds: float, **attrs) -> None:
        """A span timed by the benchmark's own code."""
        span = Span(name, 0.0, self._stack[-1] if self._stack else None, attrs)
        span.end = seconds
        self.spans.append(span)

    def inside(self, span: Span, name: str) -> bool:
        p = span.parent
        while p is not None:
            if p.name == name:
                return True
            p = p.parent
        return False

    # ------------------------------------------------------------ patching

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _function_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if span.name.startswith("aggregation.grid_"):
                span.attrs["cells"] = int(result.f1_matrix.size)
            return result

        return wrapper

    def _layer_wrapper(self, cls, method):
        tracer = self
        fn = getattr(cls, method)

        @functools.wraps(fn)
        def wrapper(layer, x, *args, **kwargs):
            if method == "forward":
                train = kwargs.get("train", args[0] if args else False)
                mode = "fwd" if train else "infer"
            else:
                mode = "bwd" if method == "backward" else "adjoint"
            idx = tracer._layer_index.get(layer)
            span = tracer.open(
                "nn.layer",
                layer=f"L{idx:02d}" if idx is not None else "L??",
                kind=cls.__name__,
                mode=mode,
                batch=x.shape[0],
                shape=x.shape,
            )
            if cls.__name__ == "Conv":
                span.attrs["conv"] = (layer.kt, layer.kc, layer.f_out)
            try:
                return fn(layer, x, *args, **kwargs)
            finally:
                tracer.close(span)

        return wrapper

    def _build_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            model = fn(*args, **kwargs)
            for i, layer in enumerate(model.layers):
                tracer._layer_index[layer] = i
            return model

        return wrapper

    def _predict_batch_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(model, x):
            span = tracer.open("model.predict_batch", batch=x.shape[0])
            try:
                return fn(model, x)
            finally:
                tracer.close(span)

        return wrapper

    def _replace_everywhere(self, original, replacement) -> None:
        """Swap a function in every seiznet module, and in the benchmark's
        workloads module, that holds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name in ("seiznet", "workloads") or mod_name.startswith("seiznet.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def install(self) -> None:
        import seiznet.cli  # noqa: F401  (imports every instrumented module)
        from seiznet import model as model_mod
        from seiznet.nn import layers

        for mod_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            self._replace_everywhere(original, self._function_wrapper(original, name))
        self._replace_everywhere(model_mod.build, self._build_wrapper(model_mod.build))
        self._set(
            model_mod.TrainedModel,
            "predict_batch",
            self._predict_batch_wrapper(model_mod.TrainedModel.predict_batch),
        )
        for cls in (layers.Conv, layers.BatchNorm, layers.ReLU, layers.Sigmoid,
                    layers.MaxPoolTime, layers.Dropout, layers.Dense):
            for method in LAYER_METHODS:
                if method in vars(cls):
                    self._set(cls, method, self._layer_wrapper(cls, method))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------- reduction


def _median_ms(values) -> float:
    return 1000.0 * statistics.median(values) if values else 0.0


def conv_useful_macs(shape, kt: int, kc: int, f_out: int) -> int:
    """Multiply-adds of a same-padded conv counting only the kernel taps
    that land on in-range channels (every time tap counts)."""
    B, T, C, Fi = shape
    pc = (kc - 1) // 2
    taps = sum(1 for c in range(C) for dc in range(kc) if 0 <= c + dc - pc < C)
    return B * T * kt * taps * Fi * f_out


def per_layer_metrics(tracer: Tracer, round_times: dict) -> dict:
    """Reduce spans to the per-layer metrics (medians per call).

    round_times holds the median untraced and traced round wall times.
    A span the workload never enters reports 0.
    """
    by_name: dict[str, list[Span]] = {}
    layer_calls: dict[tuple[str, str], list[Span]] = {}
    for s in tracer.spans:
        if s.name == "nn.layer":
            layer_calls.setdefault((s.attrs["layer"], s.attrs["mode"]), []).append(s)
        else:
            by_name.setdefault(s.name, []).append(s)

    def secs(name, keep=lambda s: True):
        return [s.seconds for s in by_name.get(name, []) if keep(s)]

    out = {}

    def layer_ms(li, mode, batch=NN_BATCH):
        return _median_ms([s.seconds for s in layer_calls.get((li, mode), []) if s.attrs["batch"] == batch])

    for kind, layers_ in (("Conv", CONV), ("BatchNorm", BATCHNORM), ("MaxPoolTime", MAXPOOL)):
        for li in layers_:
            for mode in ("fwd", "bwd", "infer"):
                out[f"nn.{li}-{kind}.{mode}_ms"] = layer_ms(li, mode)
            if kind == "Conv":
                out[f"nn.{li}-Conv.adjoint_ms"] = _median_ms([s.seconds for s in layer_calls.get((li, "adjoint"), [])])
                out[f"nn.{li}-Conv.b1_ms"] = layer_ms(li, "infer", batch=1)
                fwd = [s for s in layer_calls.get((li, "fwd"), []) if s.attrs["batch"] == NN_BATCH]
                gflops = 0.0
                if fwd:
                    macs = conv_useful_macs(fwd[0].attrs["shape"], *fwd[0].attrs["conv"])
                    gflops = 2.0 * macs / statistics.median(s.seconds for s in fwd) / 1e9
                out[f"nn.{li}-Conv.gflop_per_s"] = gflops
    named = set(CONV + BATCHNORM + MAXPOOL)
    for mode in ("fwd", "bwd", "infer"):
        others = sorted({li for (li, m) in layer_calls if m == mode and li not in named})
        out[f"nn.other.{mode}_ms"] = sum(layer_ms(li, mode) for li in others)

    for n in ("bce", "l2_penalty", "add_l2", "sgd_step"):
        out[f"loss.{n}_ms"] = _median_ms(secs(f"loss.{n}"))
    in_fit = lambda s: tracer.inside(s, "model.fit")  # noqa: E731
    out["model.validate_ms"] = _median_ms(secs("model.predict_batch", in_fit))
    out["model.snapshot_ms"] = _median_ms(secs("model.snapshot"))
    out["model.predict_batch_ms"] = _median_ms(secs("model.predict_batch", lambda s: not in_fit(s)))
    for n in ("predict_series", "save", "load"):
        out[f"model.{n}_ms"] = _median_ms(secs(f"model.{n}"))
    out["model.sgd_steps"] = len(by_name.get("loss.sgd_step", []))
    out["model.windows_trained"] = sum(
        s.attrs["batch"] for s in layer_calls.get(("L00", "fwd"), [])
    )
    out["model.windows_scored"] = sum(
        s.attrs["batch"] for s in by_name.get("model.predict_batch", []) if not in_fit(s)
    )
    for n in ("load_record", "resample", "windows"):
        out[f"records.{n}_ms"] = _median_ms(secs(f"records.{n}"))
    out["synth.record_ms"] = _median_ms(secs("synth.record"))
    out["store.save_ms"] = _median_ms(secs("store.save"))
    out["store.load_ms"] = _median_ms(secs("store.load"))
    for n in ("grid_bayes", "grid_diff", "seizure_eval"):
        out[f"aggregation.{n}_ms"] = _median_ms(secs(f"aggregation.{n}"))
    upd = secs("aggregation.online_update")
    out["aggregation.online_update_us"] = 1e6 * statistics.median(upd) if upd else 0.0
    out["aggregation.grid_cells"] = sum(
        s.attrs.get("cells", 0) for n in ("aggregation.grid_bayes", "aggregation.grid_diff") for s in by_name.get(n, [])
    )
    out["metrics.roc_auc_ms"] = _median_ms(secs("metrics.roc_auc"))
    out["metrics.metric_set_ms"] = _median_ms(secs("metrics.metric_set"))
    for n in ("deeplift", "ascent_step", "welch_psd"):
        out[f"interpret.{n}_ms"] = _median_ms(secs(f"interpret.{n}"))
    out["interpret.ascent_steps"] = len(by_name.get("interpret.ascent_step", []))
    out["render.svg_ms"] = _median_ms(secs("render.svg"))
    out["render.csv_ms"] = _median_ms(secs("render.csv"))
    for s in CLI_STAGES:
        v = secs(f"cli.{s}")
        out[f"cli.{s}_s"] = statistics.median(v) if v else 0.0
    untraced, traced = round_times["untraced"], round_times["traced"]
    out["trace.untraced_round_s"] = untraced
    out["trace.traced_round_s"] = traced
    out["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    return out


def share_table(tracer: Tracer, total_seconds: float, first: int = 0) -> list[str]:
    """Lines giving each span name's total time and its share of
    total_seconds, over the spans recorded from index `first` on.

    Spans nest (a CLI stage holds model and layer calls), so the shares
    add up to more than 100 %.
    """
    totals: dict[str, float] = {}
    for s in tracer.spans[first:]:
        key = s.name
        if key == "nn.layer":
            key = f"nn.{s.attrs['layer']}-{s.attrs['kind']}.{s.attrs['mode']}@{s.attrs['batch']}"
        totals[key] = totals.get(key, 0.0) + s.seconds
    return [
        f"{key:40s} {t:10.4f} s {100.0 * t / total_seconds:7.2f} %"
        for key, t in sorted(totals.items(), key=lambda kv: -kv[1])
    ]
