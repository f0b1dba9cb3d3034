"""Benchmark of gjms6: time one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every pass over the workload's checks runs in a
fresh interpreter (``perfbench/worker.py``), one busy process at a time, with
OpenBLAS, OMP and MKL pinned to one thread; memo caches therefore start empty
in every pass, as they do for one CLI run. Passes repeat until ``--seconds``
is used up, with at least MIN_PASSES passes and, untraced, at least the 100
check samples a p90 needs. Times are normalized by the reference kernel (see
``perfbench/measure.py``).

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the passes run under the per-layer
tracer and the metrics are the per-layer ones. Span records of the last
traced pass go to ``.perfbench_out/spans-<workload>.json``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import measure, workloads  # noqa: E402
from perfbench.tracer import COUNTERS, KEYED, LAYERS  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 7
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# A run stops starting passes once it could not finish another one by this
# many seconds after it began, whatever it still lacks.
HARD_LIMIT_S = 160.0
CHILD_TIMEOUT_S = 150.0


class WorkerError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def run_worker(mode: str, request: dict | None = None) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.worker", mode],
        input=json.dumps(request) if request is not None else "",
        capture_output=True, text=True, cwd=ROOT, env=child_env(), timeout=CHILD_TIMEOUT_S,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise WorkerError(f"worker {mode} exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(request: dict, seconds: float, min_passes: int, min_samples: int) -> list:
    start = time.perf_counter()
    passes: list = []
    while True:
        passes.append(run_worker("pass", request))
        elapsed = time.perf_counter() - start
        next_end = elapsed * (len(passes) + 1) / len(passes)
        samples = sum(len(p["samples"]) for p in passes)
        if len(passes) >= min_passes and samples >= min_samples and next_end > seconds:
            return passes
        if next_end > HARD_LIMIT_S:
            if len(passes) < min_passes or samples < min_samples:
                raise WorkerError(f"{len(passes)} passes with {samples} check samples in {elapsed:.0f} s; "
                                  f"the run needs {min_passes} passes and {min_samples} samples")
            return passes


def pass_times(p: dict):
    """Normalized (pass seconds, per-check seconds) of one pass."""
    ref = fmean(p["refs"])  # raw seconds of one reference repetition
    checks = [measure.normalize(s[1], ref) for s in p["samples"]]
    return sum(checks), checks


def tally(passes: list):
    """A check that raises or answers wrong counts as failed. ``correct`` is
    false when any check failed, except the known failures of
    ``workloads.KNOWN_FAILURES`` answering wrong, as they do on every run."""
    samples = [s for p in passes for s in p["samples"]]
    failed = sum(1 for s in samples if s[2] != "ok")
    correct = all(s[2] == "ok" or (s[2] == "wrong" and s[0] in workloads.KNOWN_FAILURES) for s in samples)
    return {"correct": correct, "attempted": len(samples), "failed": failed}


def margin_digits(passes: list):
    margins = [s[3] for p in passes for s in p["samples"] if s[3] is not None]
    return min(margins) if margins else None


def end_to_end(passes: list, setups: list) -> dict:
    per_pass = [pass_times(p) for p in passes]
    checks = [c for _, cs in per_pass for c in cs]
    return {
        "setup_s": measure.median(measure.normalize(s["raw_s"], fmean(s["refs"])) for s in setups),
        "pass_s": measure.median(t for t, _ in per_pass),
        "check_p50_ms": 1e3 * measure.median(checks),
        "check_p90_ms": 1e3 * measure.percentile(checks, 0.9),
        "peak_rss_mb": measure.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(passes: list) -> dict:
    traces = [p["trace"] for p in passes]
    counts, distinct = traces[0]["counts"], traces[0]["distinct"]
    if any(t["counts"] != counts or t["distinct"] != distinct for t in traces):
        print("warning: traced passes differ in their counts", file=sys.stderr)
    # A layer's self time is given as its share of the traced pass: a layer a
    # workload never enters then reads 0 as a share, not as a time.
    raw_pass = [sum(s[1] for s in p["samples"]) for p in passes]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_share"] = measure.median(t["self_s"][layer] / r for t, r in zip(traces, raw_pass))
    for c in COUNTERS:
        out[c] = counts[c]
    for c in KEYED:
        out[c.replace("_calls", "_distinct_ratio")] = distinct[c] / counts[c] if counts[c] else 0.0
    ops = counts["polys.mul_calls"] + counts["polys.add_calls"]
    polys_s = measure.median(measure.normalize(t["self_s"]["polys"], fmean(p["refs"]))
                             for t, p in zip(traces, passes))
    out["polys.ops_per_s"] = ops / polys_s if polys_s > 0 else 0.0
    out["trace.pass_s"] = measure.median(pass_times(p)[0] for p in passes)
    return out


def units() -> dict:
    """Unit of every metric, as BENCHMARK.json lists it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gjms6" / "__init__.py").is_file():
        print(f"no gjms6 sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    spec = workloads.build(args.workload, args.seed)
    request = {"spec": spec, "trace": bool(args.trace),
               "spans_path": str(OUT_DIR / f"spans-{args.workload}.json")}
    try:
        if args.trace:
            passes = run_passes(request, args.seconds, MIN_TRACED_PASSES, 1)
            metrics = per_layer(passes)
        else:
            setups = [run_worker("setup") for _ in range(SETUP_REPS)]
            passes = run_passes(request, args.seconds, MIN_PASSES, measure.min_samples_for(0.9))
            metrics = end_to_end(passes, setups)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    result = tally(passes)
    raw_pass = measure.median(sum(s[1] for s in p["samples"]) for p in passes)
    raw_ref = measure.median(fmean(p["refs"]) for p in passes)
    digits = margin_digits(passes)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, {result['attempted']} checks, "
          f"{result['failed']} failed; raw pass {raw_pass:.4f} s, raw reference {raw_ref * 1e3:.3f} ms"
          + (f"; margin_digits {digits:.3f}" if digits is not None and math.isfinite(digits) else ""))
    unit = units()
    result["metrics"] = {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
