"""Benchmark worker: runs one workload against the program in a fresh process.

    python3 worker.py <workload> <mode> <seconds> <src-dir>   < pickled inputs

Writes one pickled response dict to stdout.  Modes:

- ``setup``: import the program and do the workload's one-time work, nothing
  else.  ``setup_s`` counts the import and the one-time work; unpickling
  the inputs, building the program's objects from them and the calibration
  kernel runs around them are excluded.
- ``run``: after set-up, run operations in pool order (wrapping around if the
  pool runs out) until `seconds` have passed; one client, closed loop.  The
  calibration kernel (calibrate.py) runs between operations.
- ``trace``: run set-up and every pool operation untraced and traced, and
  return both passes' values, summed times and the spans.
"""

import pickle
import resource
import statistics
import sys
import time

# Calibration kernel runs just after the import and just after the one-time
# work; their median scales setup_s.
SETUP_KERNEL_RUNS = 5


def _attempt(fn, *args):
    """(values, error): an operation that raises is a failed operation."""
    try:
        return fn(*args), None
    except Exception as exc:  # keep the loop running; the launcher counts it
        return None, f"{type(exc).__name__}: {exc}"


def _timed_loop(workload, seconds):
    """Operations in pool order until `seconds` have passed, with the
    calibration kernel timed between consecutive operations; each operation
    gets the mean of the kernel times just before and just after it."""
    import calibrate

    clock = time.perf_counter
    size = len(workload.items)
    durations, kernel_s, results = [], [], []
    before = calibrate.measure()
    start = clock()
    deadline = start + seconds
    position = 0
    while True:
        index = position % size
        t0 = clock()
        values, error = _attempt(workload.op, index)
        t1 = clock()
        after = calibrate.measure()
        durations.append(t1 - t0)
        kernel_s.append(0.5 * (before + after))
        results.append((index, values, error))
        before = after
        position += 1
        if clock() >= deadline:
            break
    return {
        "wall_s": clock() - start,
        "durations": durations,
        "kernel_s": kernel_s,
        "results": results,
    }


def _traced_passes(cls, inputs, workloads):
    """Set-up and every operation, untraced and traced, alternating per
    operation so that slow and fast periods of the machine fall on both."""
    import tracing

    clock = time.perf_counter
    plain, traced = cls(inputs), cls(inputs)
    tracer = tracing.Tracer()

    def both(op_id, name, fn_plain, fn_traced, *args):
        t0 = clock()
        plain_out = _attempt(fn_plain, *args)
        t1 = clock()
        with tracing.installed(tracer, workloads.LAYERS, workloads.TRACED_CLASSES):
            t2 = clock()
            traced_out = _attempt(tracer.run_op, op_id, name, fn_traced, *args)
            t3 = clock()
        return plain_out, traced_out, t1 - t0, t3 - t2

    setup_plain, setup_traced, untraced_s, traced_s = both(
        -1, "setup", plain.prepare, traced.prepare
    )
    results, traced_results = [], []
    for index in range(len(plain.items)):
        plain_out, traced_out, dt_plain, dt_traced = both(
            index, "op", plain.op, traced.op, index
        )
        results.append((index, *plain_out))
        traced_results.append((index, *traced_out))
        untraced_s += dt_plain
        traced_s += dt_traced
    return {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "setup_values": setup_plain,
        "traced_setup_values": setup_traced,
        "results": results,
        "traced_results": traced_results,
        "names": tracer.names,
        "spans": tracer.spans,
    }


def main(argv):
    name, mode, seconds, src = argv[1], argv[2], float(argv[3]), argv[4]
    raw = sys.stdin.buffer.read()
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import workloads

    t1 = time.perf_counter()
    import calibrate

    kernel_s = [calibrate.measure() for _ in range(SETUP_KERNEL_RUNS)]
    inputs = pickle.loads(raw)
    workload = workloads.WORKLOADS[name](inputs)
    t2 = time.perf_counter()
    setup_values = workload.prepare()
    setup_s = (t1 - t0) + (time.perf_counter() - t2)
    kernel_s += [calibrate.measure() for _ in range(SETUP_KERNEL_RUNS)]

    response = {
        "setup_s": setup_s,
        "setup_kernel_s": statistics.median(kernel_s),
        "setup_values": setup_values,
    }
    if mode == "run":
        response.update(_timed_loop(workload, seconds))
    elif mode == "trace":
        response.update(_traced_passes(workloads.WORKLOADS[name], inputs, workloads))
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    response["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.buffer.write(pickle.dumps(response, protocol=pickle.HIGHEST_PROTOCOL))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
