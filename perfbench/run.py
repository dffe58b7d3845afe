"""Certification benchmark for robust_stability.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  Inputs
are generated from --seed before timing starts (gen.py) and handed to a
fresh worker process (worker.py), which imports the program and runs one
client in a closed loop.  The oracle (oracle.py) then checks every result.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 runs a fixed pool of
operations (--seconds does not apply), each once untraced and once traced,
and reports per-layer call counts and self times from the spans; the spans
are written to perfbench/out/.

Exit codes: 0 all operations correct, 1 an operation failed or disagreed
with the oracle, 2 usage or environment error (no result printed).
"""

import argparse
import json
import math
import os
import pickle
import platform
import statistics
import subprocess
import sys
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

TOL_ENV = "ROBUST_STABILITY_TOL"
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class Workload(NamedTuple):
    """pool_rate: inputs generated per measured second, enough that the loop
    does not wrap at twice the current speed.  trace_pool: fixed operation
    count of a traced run, so its call counts repeat exactly.  tail: the
    op_tail_ms percentile, fixed so that runs compare: the highest of 99, 95,
    90 that left at least twenty operations beyond it in every 15-s run on a
    2-vCPU Sapphire Rapids KVM guest, so that a slower machine still leaves
    ten (the output states how many it left).
    """

    pool_rate: int
    trace_pool: int
    tail: int


WORKLOADS = {
    "value-stream": Workload(pool_rate=300, trace_pool=1000, tail=95),
    "constants-sweep": Workload(pool_rate=100, trace_pool=100, tail=90),
    "epsargmin-pairs": Workload(pool_rate=300, trace_pool=400, tail=95),
    "transform-identity": Workload(pool_rate=100, trace_pool=100, tail=90),
}

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 20
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = (
    "lp.solve.calls",
    "lp.solve.self_s",
    "lp.slater_constant.calls",
    "lp.optimal_face_bounded.calls",
    "geometry.min_norm_point.calls",
    "geometry.min_norm_point.self_s",
    "geometry.project_onto_polytope.calls",
    "geometry.project_onto_halfspaces.calls",
    "geometry.project_onto_halfspaces.self_s",
    "geometry.contains_origin_interior.calls",
    "geometry.inradius_at_origin.self_s",
    "geometry.dist_origin_to_hset.self_s",
    "geometry.enumerate_hrep_vertices.self_s",
    "model.constraintwise_distance.calls",
    "model.constraintwise_distance.self_s",
    "model.robust_counterpart.calls",
    "stability.check_interior_solvable.calls",
    "stability.lipschitz_constant.self_s",
    "stability.ValueLipschitzChecker.check.self_s",
    "setdist.truncated_hausdorff.self_s",
    "setdist.eps_argmin.calls",
    "transform.verify_transform_distance.self_s",
    "transform.sample_accept_ratio",
    "lp.self_s",
    "geometry.self_s",
    "model.self_s",
    "stability.self_s",
    "setdist.self_s",
    "transform.self_s",
    "trace.spans",
    "trace.overhead_pct",
)
LAYER_MODULES = ("lp", "geometry", "model", "stability", "setdist", "transform")


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


def per_layer_unit(name):
    if name.endswith(".calls") or name == "trace.spans":
        return "count"
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    return "ratio"


def tail_stats(durations_s, level):
    """(p50_ms, tail_ms, ops beyond the tail level).

    Quantiles are Harrell-Davis estimates, a weighted mean of all order
    statistics: operation times cluster by input shape, and the plain
    sample median jumps between clusters as the op count changes.
    """
    import numpy as np
    from scipy.stats.mstats import hdquantiles

    ms = np.asarray(durations_s) * 1e3
    p50, tail = (float(q) for q in hdquantiles(ms, prob=[0.5, level / 100.0]))
    return p50, tail, int(np.sum(ms > tail))


def end_to_end_metrics(setup_s, durations, peak_rss_mb, tail_level):
    """Metrics from per-operation times (already at reference speed)."""
    p50, tail, beyond = tail_stats(durations, tail_level)
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(durations) / sum(durations),
        "op_p50_ms": p50,
        "op_tail_ms": tail,
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, beyond


def per_layer_metrics(names, spans, untraced_s, traced_s, samples):
    import tracing

    calls, self_s = tracing.summarize(names, spans)
    module_self = {m: 0.0 for m in LAYER_MODULES}
    for name, seconds in self_s.items():
        module = name.split(".", 1)[0]
        if module in module_self and "." in name:
            module_self[module] += seconds
    projections = tracing.calls_under(
        names, spans, "geometry.project_onto_polytope", "transform."
    )
    special = {
        "transform.sample_accept_ratio": samples / (projections / 2) if projections else 0.0,
        "trace.spans": len(spans),
        "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
    }
    metrics = {}
    for name in PER_LAYER:
        if name in special:
            value = special[name]
        elif name.endswith(".calls"):
            value = calls.get(name[: -len(".calls")], 0)
        elif name[: -len(".self_s")] in module_self:
            value = module_self[name[: -len(".self_s")]]
        else:
            value = self_s.get(name[: -len(".self_s")], 0.0)
        metrics[name] = {"value": value, "unit": per_layer_unit(name)}
    return metrics, calls, self_s


def _worker(name, mode, seconds, inputs, timeout):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), name, mode, repr(seconds), SRC]
    try:
        proc = subprocess.run(
            cmd,
            input=pickle.dumps(inputs, protocol=pickle.HIGHEST_PROTOCOL),
            capture_output=True,
            timeout=timeout,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} worker exceeded {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(
            f"{mode} worker exited with {proc.returncode}:\n"
            + proc.stderr.decode(errors="replace")
        )
    return pickle.loads(proc.stdout)


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "seed": seed,
        **{k: os.environ[k] for k in PINNED_ENV},
    }


def _describe_failures(failed, limit=5):
    for position in sorted(failed)[:limit]:
        print(f"  failed op {position}: {failed[position]}")
    if len(failed) > limit:
        print(f"  ... and {len(failed) - limit} more")


def _setup_probe(name, inputs):
    """(raw, at reference speed) set-up seconds of one fresh worker."""
    import calibrate

    response = _worker(name, "setup", 0, inputs, PROBE_TIMEOUT_S)
    raw = response["setup_s"]
    return raw, calibrate.scale(raw, response["setup_kernel_s"])


def run_end_to_end(name, seed, seconds):
    import calibrate
    import gen
    import oracle

    spec = WORKLOADS[name]
    pool = max(1, math.ceil(spec.pool_rate * seconds))
    inputs = gen.WORKLOADS[name](seed, pool)
    response = _worker(name, "run", seconds, inputs, WORKER_TIMEOUT_S)
    probe_inputs = dict(inputs, items=[])
    probes = [_setup_probe(name, probe_inputs) for _ in range(SETUP_PROBES)]
    failed = oracle.failures(name, inputs, response["results"])
    raw = response["durations"]
    scaled = [calibrate.scale(d, k) for d, k in zip(raw, response["kernel_s"])]
    metrics, beyond = end_to_end_metrics(
        statistics.median(p for _, p in probes),
        scaled,
        response["peak_rss_mb"],
        spec.tail,
    )
    attempted = len(raw)
    wraps = attempted // len(inputs["items"])
    raw_p50, raw_tail, _ = tail_stats(raw, spec.tail)
    kernel_ms = statistics.median(response["kernel_s"]) * 1e3
    print(
        f"{name}: {attempted} ops in {response['wall_s']:.3f} s from a pool of "
        f"{len(inputs['items'])}" + (f" (wrapped {wraps} times)" if wraps else "")
    )
    print(
        f"  raw wall-clock: ops_per_s = {attempted / response['wall_s']:.6g} (loop) "
        f"{attempted / sum(raw):.6g} (busy), op_p50_ms = {raw_p50:.6g}, "
        f"op_tail_ms = {raw_tail:.6g}; median kernel {kernel_ms:.4f} ms vs "
        f"reference {calibrate.REFERENCE_S * 1e3:.4f} ms"
    )
    print(
        "  setup_s probes, raw / at reference speed: "
        + ", ".join(f"{r:.4f}/{p:.4f}" for r, p in probes)
    )
    print("  at reference speed:")
    for key, metric in metrics.items():
        note = ""
        if key == "op_tail_ms":
            note = f"  (p{spec.tail}, {beyond} of {attempted} ops beyond it)"
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}{note}")
    print(f"  fail_ratio = {len(failed) / attempted:.6g} ({len(failed)} of {attempted})")
    _describe_failures(failed)
    return attempted, len(failed), metrics


def run_traced(name, seed):
    import gen
    import oracle
    import tracing

    spec = WORKLOADS[name]
    inputs = gen.WORKLOADS[name](seed, spec.trace_pool)
    response = _worker(name, "trace", 0, inputs, WORKER_TIMEOUT_S)
    results, traced = response["results"], response["traced_results"]
    failed = oracle.failures(name, inputs, results)
    for position, (plain, with_spans) in enumerate(zip(results, traced)):
        if repr(plain[1:]) != repr(with_spans[1:]) and position not in failed:
            failed[position] = "traced run gave different certificate values"
    if repr(response["setup_values"]) != repr(response["traced_setup_values"]):
        failed[-1] = "traced set-up gave different values"
    samples = sum(v["samples"] for _, v, _ in traced if v and "samples" in v)
    names, spans = response["names"], response["spans"]
    metrics, calls, self_s = per_layer_metrics(
        names, spans, response["untraced_s"], response["traced_s"], samples
    )
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{name}-seed{seed}.tsv")
    tracing.write_spans(spans_path, names, spans)

    attempted = len(results)
    print(f"{name} traced: {attempted} ops, {len(spans)} spans written to {spans_path}")
    print(
        f"  untraced {response['untraced_s']:.3f} s, traced {response['traced_s']:.3f} s, "
        f"tracing overhead {metrics['trace.overhead_pct']['value']:.1f} %"
    )
    print(f"  {'span':<48} {'calls':>8} {'self_s':>10}")
    for span in sorted(calls, key=lambda s: -self_s[s]):
        print(f"  {span:<48} {calls[span]:>8} {self_s[span]:>10.4f}")
    print(f"  fail_ratio = {len(failed) / attempted:.6g} ({len(failed)} of {attempted})")
    _describe_failures(failed)
    return attempted, len(failed), metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if TOL_ENV in os.environ:
        print(
            f"error: {TOL_ENV} is set; it changes the program's tolerances, "
            "so results would not be comparable. Unset it.",
            file=sys.stderr,
        )
        return 2
    if not os.path.isfile(os.path.join(SRC, "robust_stability", "__init__.py")):
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)  # before numpy is imported here or in a worker
    print("env: " + json.dumps(environment(args.seed), sort_keys=True))
    try:
        if args.trace:
            attempted, failed, metrics = run_traced(args.workload, args.seed)
        else:
            attempted, failed, metrics = run_end_to_end(
                args.workload, args.seed, args.seconds
            )
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
