"""Benchmark entry point: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload desk --seed 1 --seconds 45 --trace 0

Run from the repository root. The package is imported from ``src/`` and the
BLEU oracle from ``tests/oracles.py`` (read only). Set-up runs three times
and ``setup_s`` is their median; one untimed warm-up cycle follows; then
cycles repeat until ``--seconds`` have passed. The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the gated end-to-end metrics with ``--trace 0``, the per-layer
ones with ``--trace 1``. Gated timings aggregate each operation's median
repetition and are scaled to the reference host by a host-speed gauge timed
in the same run (README.md says why). The traced run alternates untraced and
traced cycles, so it also reports the tracing overhead. Spans and a full run
record are written to ``.bench_out/``.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1    # at most nproc; one thread keeps a shared 2-core host steadiest
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
P90_MIN_SAMPLES = 100
UNITS = {
    "setup_s": "s",
    "train_tokens_per_s": "1/s",
    "train_step_ms_p50": "ms",
    "fit_s": "s",
    "decode_ms_per_token": "ms",
    "decode_reports_per_s": "1/s",
    "report_ms_p50": "ms",
    "score_pairs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ops_ok_ratio": "ratio",
}
# fit_s is one long operation per variant and cycle, too few repetitions for a
# steady best-of on a shared host, so it is printed but not gated.
GATED = tuple(name for name in UNITS if name != "fit_s")


def _load_repo():
    """Import cxrgen from src/ and the BLEU oracle from tests/; exit 2 if either is missing."""
    oracle_path = ROOT / "tests" / "oracles.py"
    if not (ROOT / "src" / "cxrgen" / "__init__.py").is_file() or not oracle_path.is_file():
        print(f"bench: no cxrgen sources under {ROOT} (need src/cxrgen and tests/oracles.py)",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("bench_oracles", oracle_path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles.count_and_clip_bleu


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _rate(units, seconds) -> float:
    """units / seconds, or 0.0 when a failed operation left no samples (the run is incorrect)."""
    return units / seconds if seconds else 0.0


def median_times(rec, kind):
    """(median repetition, units) of every operation of one kind."""
    return [(statistics.median(times), rec.units[kind][identity])
            for identity, times in rec.times[kind].items()]


def per_operation(rec) -> dict[str, float]:
    """Timing metrics over the median repetition of every operation, as measured."""
    steps, fits, reports, scores = (median_times(rec, kind)
                                    for kind in ("step", "fit", "report", "score"))
    report_s = sum(s for s, _ in reports)
    return {
        "train_tokens_per_s": _rate(sum(u for _, u in steps), sum(s for s, _ in steps)),
        "train_step_ms_p50": 1000 * _median([s for s, _ in steps]),
        "fit_s": sum(s for s, _ in fits),
        "decode_ms_per_token": 1000 * _rate(report_s, sum(u for _, u in reports)),
        "decode_reports_per_s": _rate(len(reports), report_s),
        "report_ms_p50": 1000 * _median([s for s, _ in reports]),
        "score_pairs_per_s": _rate(sum(u for _, u in scores), sum(s for s, _ in scores)),
    }


def to_reference_host(metrics, scale) -> dict[str, float]:
    """Timings in reference-host time: times times the gauge's scale, rates divided by it."""
    return {name: value / scale if UNITS[name] == "1/s" else value * scale
            for name, value in metrics.items()}


def end_to_end(rec, run, measured) -> dict[str, float]:
    """Gated metrics: timings scaled to the reference host by the run's host-speed gauge."""
    metrics = {**to_reference_host({"setup_s": _median(run["setup_s"])},
                                   run["setup_gauge"].scale()),
               **to_reference_host(measured, rec.gauge.scale()),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               "ops_ok_ratio": (rec.attempted - rec.failed) / rec.attempted}
    return {name: metrics[name] for name in GATED}


def tails(rec) -> dict[str, float | None]:
    """Ungated p90s over every repetition, as measured, where enough samples back them."""
    def p90(kind):
        samples = sorted(s for times in rec.times[kind].values() for s in times)
        if len(samples) < P90_MIN_SAMPLES:
            return None
        return 1000 * samples[math.ceil(0.9 * len(samples)) - 1]

    return {"train_step_ms_p90": p90("step"), "report_ms_p90": p90("report")}


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__, "openblas": blas,
        "commit": _git_commit(),
    }


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def print_report(workload, why, rec, e2e, also, run):
    print(f"workload {workload.name} seed {workload.seed}: {why}")
    print("environment " + json.dumps(run["environment"]))
    print("end-to-end (gated; each operation's median repetition, in reference-host time):")
    for name, value in e2e.items():
        print(f"  {name:28s} {value:14.6g} {UNITS[name]}")
    print(f"  {'fit_s':28s} {run['fit_s']:14.6g} s (ungated)")
    print(f"  {'ops_failed_ratio':28s} {rec.failed / rec.attempted:14.6g} ratio "
          f"(ungated; {rec.failed} of {rec.attempted} failed)")
    gauge_ms = 1000 * statistics.median(run["gauge_s"]["cycles"])
    print(f"as measured, before scaling by the gauge (median {gauge_ms:.4g} ms; ungated):")
    for name, value in run["measured"].items():
        print(f"  {name:28s} {value:14.6g} {UNITS[name]}")
    print("tails over every repetition, as measured (ungated):")
    for name, value in also.items():
        shown = f"{value:14.6g} ms" if value is not None else \
            f"{'n/a':>14s} ms (fewer than {P90_MIN_SAMPLES} samples)"
        print(f"  {name:28s} {shown}")
    print(f"  test_bleu_1                  {workload.test_bleu_1:14.6g} (quality)")
    print(f"  samples {json.dumps(run['samples'])} over {run['cycles']} cycles; "
          f"warm-up {run['warmup_s']:.3f} s; "
          f"empty test hypotheses left out of BLEU-1: {rec.empty_hypotheses}")
    print(f"  outputs digest {run['outputs_digest']}")
    for error in rec.errors[:10]:
        print(f"  FAILED {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    oracle_bleu = _load_repo()
    import pipeline
    import tracing

    if args.workload not in pipeline.PROFILES:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(pipeline.PROFILES)}")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workload = pipeline.Workload(args.workload, args.seed, out_dir / f"tmp-{run_id}",
                                 oracle_bleu)
    tracer = tracing.Tracer(run_id) if args.trace else None
    rec = pipeline.Recorder()
    try:
        run = pipeline.measure(workload, rec, tracer, args.seconds)
    finally:
        workload.cleanup()

    measured = per_operation(rec)
    e2e = end_to_end(rec, run, measured)
    also = tails(rec)
    run.update({
        "fit_s": measured["fit_s"] * rec.gauge.scale(), "measured": measured,
        "gauge_s": {"setup": run.pop("setup_gauge").samples, "cycles": rec.gauge.samples},
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "end_to_end": e2e,
        "ungated": also, "test_bleu_1": workload.test_bleu_1,
        "outputs_digest": workload.outputs_digest(),
        "empty_hypotheses": rec.empty_hypotheses, "errors": rec.errors,
        "samples": {kind: sum(map(len, times.values())) for kind, times in rec.times.items()},
    })
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    print_report(workload, why, rec, e2e, also, run)
    if tracer:
        layers = tracing.per_layer_metrics(tracer)
        overhead = statistics.median(run["cycle_s"][True]) - \
            statistics.median(run["cycle_s"][False])
        layers["trace.overhead_ms_per_cycle"] = (1000 * overhead, "ms")
        print("per-layer (traced cycles):")
        for name, (value, unit) in layers.items():
            print(f"  {name:36s} {value:14.6g} {unit}")
        tracer.write(out_dir / f"spans-{run_id}.jsonl")
        run["per_layer"] = {name: value for name, (value, _) in layers.items()}
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in e2e.items()}
    (out_dir / f"run-{run_id}.json").write_text(json.dumps(run, indent=2) + "\n",
                                                encoding="utf-8")
    print(json.dumps({"correct": rec.failed == 0, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
