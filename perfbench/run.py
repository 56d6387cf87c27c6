"""Run one seiznet benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload desk-pipeline --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's src/ directory; scratch files go to .perfbench_work/ in the
checkout and are removed at the end.  With --trace 0 the last stdout
line holds the end-to-end metrics (medians over the rounds run); with
--trace 1 it holds the per-layer metrics of a traced run, and a table
of each span's share of the traced wall time goes to stderr.

BLAS threads: OPENBLAS_NUM_THREADS from the environment (1..nproc),
else 1; OMP_NUM_THREADS and MKL_NUM_THREADS are set to the same count.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# (name, unit, better, bound): the same list as BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("pipeline_s", "s", "lower", 0.25),
    ("ingest_records_per_s", "records/s", "higher", 0.25),
    ("train_windows_per_s", "windows/s", "higher", 0.25),
    ("score_windows_per_s", "windows/s", "higher", 0.25),
    ("attribute_windows_per_s", "windows/s", "higher", 0.25),
    ("maximize_steps_per_s", "steps/s", "higher", 0.25),
    ("online_window_ms", "ms", "lower", 0.25),
    ("online_window_tail_ms", "ms", "lower", 0.25),
)
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS threads when OPENBLAS_NUM_THREADS is not set.  On a shared 2-core
# machine two threads spread the timings up to twice as wide, and the
# desk-size matrices gain no speed from the second one.
DEFAULT_BLAS_THREADS = 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["desk-pipeline", "full-k131", "online-stream"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measurement time; at least one round runs")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def blas_name(np) -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def run_rounds(wl, seconds: float, tracer):
    """Whole rounds until the next one would overrun `seconds`.

    Untraced, every round counts.  Traced, rounds alternate untraced and
    traced (at least one of each) so the overhead is measured in the same
    process; the per-layer spans come from the traced rounds.
    """
    samples, walls = [], {False: [], True: []}
    begin = time.perf_counter()
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install()
        elif tracer is not None:
            tracer.uninstall()
        t = time.perf_counter()
        sample = wl.round(k)
        last = time.perf_counter() - t
        walls[traced].append(last)
        if tracer is None or not traced:
            samples.append(sample)
        k += 1
        enough = tracer is None or k >= 2
        if enough and time.perf_counter() - begin + last > seconds:
            break
    if tracer is not None:
        tracer.uninstall()
    return samples, walls, k


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    requested = os.environ.get("OPENBLAS_NUM_THREADS", str(DEFAULT_BLAS_THREADS))
    blas_threads = int(requested) if requested.isdigit() else 0
    if not 1 <= blas_threads <= nproc:
        print(f"OPENBLAS_NUM_THREADS={requested}: must be a whole number within 1..{nproc}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # read by the BLAS library when numpy loads it
        os.environ[var] = str(blas_threads)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "seiznet" / "__init__.py").is_file():
        print(f"no seiznet sources under {src}; run from a seiznet checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np
    import scipy
    import seiznet

    if Path(seiznet.__file__).resolve().parent != (src / "seiznet").resolve():
        print(f"imported seiznet from {seiznet.__file__}, not from {src}", file=sys.stderr)
        return 2
    import spans
    import workloads

    # Quiet the program's INFO logging: cli.main configures logging only
    # when the root logger has no handler yet.
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")

    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = spans.Tracer() if args.trace else None
    try:
        work.mkdir(parents=True)
        wl = workloads.WORKLOADS[args.workload](str(work), args.seed, tracer)
        if tracer is not None:
            tracer.install()
        wl.setup()
        setup_s = time.perf_counter() - _T0
        mark = len(tracer.spans) if tracer is not None else 0
        samples, walls, n_rounds = run_rounds(wl, args.seconds, tracer)
        wl.verify()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for note in wl.notes:
        print(note, file=sys.stderr)
    for failure in wl.failures:
        print(f"CHECK FAILED {failure}", file=sys.stderr)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": n_rounds,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name(np),
        "blas_threads": blas_threads,
        "nproc": nproc,
        "online_tail_percentile": workloads.tail_percentile(wl.ONLINE_WINDOWS),
    }
    print(json.dumps({"env": env}))
    if tracer is None:
        values = {name: statistics.median(s[name] for s in samples) for name, *_ in END_TO_END if name != "setup_s"}
        values["setup_s"] = setup_s
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, *_ in END_TO_END}
    else:
        round_times = {"untraced": statistics.median(walls[False]), "traced": statistics.median(walls[True])}
        traced_total = sum(walls[True])
        print(f"span shares of {traced_total:.3f} s in {len(walls[True])} traced round(s) (set-up excluded)",
              file=sys.stderr)
        for line in spans.share_table(tracer, traced_total, first=mark):
            print(line, file=sys.stderr)
        values = spans.per_layer_metrics(tracer, round_times)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in spans.PER_LAYER}
    print(json.dumps({
        "correct": not wl.failures,
        "attempted": n_rounds * wl.ops_per_round,
        "failed": 0,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
