"""idsketch benchmark: one command, four named workloads, checked outputs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout; it imports idsketch from
`src/` there and refuses to run without it. One process drives one
caller in a closed loop: the next op starts when the previous one returns.
BLAS runs on one thread (see pin_blas_threads).

A run
  1. times set-up (importing idsketch, generating and canonicalising the
     inputs, writing input files) in this process and in four fresh child
     processes, and reports the median as `setup_s`;
  2. runs one untimed warm-up op on the inputs of the benchmark seed and
     compares its selected columns with the digests in `replay.json`
     (CountSketch and TensorSketch replay bit-identically for a seed);
  3. runs ops for `--seconds` seconds, checking every output. A failed
     check or an exception fails that op and the run goes on.

With `--trace 0` the last stdout line carries the end-to-end metrics. With
`--trace 1` ops alternate between traced (idsketch boundaries wrapped, see
tracing.py) and untraced, and the last line carries the per-layer metrics,
including the tracing overhead. Every run writes its result, with the
environment, to perfbench/out/; a traced run also writes its spans there.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import LAYER_METRICS, OP_SPAN, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("mtx-countsketch-200k", "mtx-sweep-32k", "cp-sweep-5mode", "cli-files")
REPLAY_FILE = HERE / "replay.json"
SETUP_PROBES = 4  # fresh child processes; with this process, 5 set-up samples

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ops_per_s": "1/s",
    "decomp_s_p50": "s",
    "error_p50": "norm",
    "ok_ratio": "ratio",
}


def derive_seed(*parts):
    """Stable child seed from the workload seed and tags, independent of
    numpy's seeding internals."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "little") % 2**31


def cols_digest(cols):
    import numpy as np

    data = np.asarray(cols, dtype="<i8").tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def pin_blas_threads():
    # One BLAS thread (nproc is 2 on the reference machine). The BLAS calls
    # here are small (a 110 x 500 pivoted QR, K x K solves); with a second
    # OpenBLAS thread the median cpqr took 8-11 ms instead of 2.4-2.8 ms and
    # the decomposition's quartiles spread three times wider.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def tail(values):
    """(value, percentile): the highest percentile with at least ten samples
    beyond it; the median when there are too few samples for that."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def timed_setup(workload, seed, workdir):
    """Import idsketch and build the workload's inputs; returns
    (workloads module, state, seconds)."""
    t0 = time.perf_counter()
    import workloads

    state = workloads.WORKLOADS[workload].setup(derive_seed(seed, "data"), workdir)
    elapsed = time.perf_counter() - t0
    imported = Path(sys.modules["idsketch"].__file__).resolve()
    if SRC.resolve() not in imported.parents:
        raise RuntimeError(f"idsketch imported from {imported}, not from {SRC}")
    return workloads, state, elapsed


def probe_setup(workload, seed):
    """Set-up time measured in a fresh child process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_op(workload, state, op_seed, tracer, op_id):
    """One op, timed, then its checks, untimed; returns
    (wall seconds, Outcome or None, failure messages)."""
    if tracer is not None:
        tracer.op = op_id
        tracer.install()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            raw = workload.op(state, op_seed, None)
        else:
            with tracer.span(OP_SPAN):
                raw = workload.op(state, op_seed, tracer)
        wall = time.perf_counter() - t0
    except Exception as exc:  # a raising op is a failed op; the run goes on
        return time.perf_counter() - t0, None, [f"{type(exc).__name__}: {exc}"]
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.op = None
    try:
        out = workload.check(raw)
    except Exception as exc:  # malformed output fails its op, not the run
        return wall, None, [f"check raised {type(exc).__name__}: {exc}"]
    return wall, out, list(out.failures)


def replay_check(wl, name, seed, state, workdir):
    """Warm-up op on the benchmark seed's inputs; returns failure messages."""
    expected = json.loads(REPLAY_FILE.read_text())
    bseed = expected["benchmark_seed"]
    if seed != bseed:
        state = wl.WORKLOADS[name].setup(derive_seed(bseed, "data"), workdir)
    _, out, failures = run_op(
        wl.WORKLOADS[name], state, derive_seed(bseed, "op", 0), None, "replay"
    )
    if out is None:
        return failures
    for method, digest in expected["digests"].get(name, {}).items():
        got = cols_digest(out.cols[method]) if method in out.cols else None
        if got != digest:
            failures.append(f"replay {method}: columns digest {got}, recorded {digest}")
    return failures


def environment():
    import ctypes

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                threads[Path(path).name] = fn()
                break
    cpu_model = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        if kind != "Instruction":
            caches[f"L{level}"] = (index / "size").read_text().strip()
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "git_commit": git_commit(),
    }


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def end_to_end(setup_s, walls, outcomes, attempted, failed, phase_s):
    decomp = [o.decomp_s for o in outcomes]
    errors = [e for o in outcomes for e in o.errors]
    tail_s, pct = tail(walls)
    values = {
        "setup_s": setup_s,
        "op_s_p50": statistics.median(walls),
        "op_s_tail": tail_s,
        "ops_per_s": len(walls) / phase_s,
        "decomp_s_p50": statistics.median(decomp),
        "error_p50": statistics.median(errors),
        "ok_ratio": (attempted - failed) / attempted,
    }
    notes = [f"op_s_tail is p{pct:.1f} of {len(walls)} ops"
             + (" (fewer than 21 ops: the median)" if len(walls) < 21 else ""),
             f"error_p50 is the median of {len(errors)} reported errors"
             f" (largest {max(errors):.3g})"]
    return values, notes


def per_layer(tracer, traced_walls, untraced_walls, untraced_outcomes):
    values, absent = tracer.layer_metrics()
    values["trace.overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(untraced_walls)
    )
    walls = {}
    for o in untraced_outcomes:
        for method, ws in o.trial_walls.items():
            walls.setdefault(method, []).extend(ws)
    if walls.get("gaussian") and walls.get("countsketch"):
        values["bench.countsketch_speedup"] = (
            statistics.median(walls["gaussian"]) / statistics.median(walls["countsketch"])
        )
    else:
        values["bench.countsketch_speedup"] = 0.0
        absent["bench.countsketch_speedup"] = "no gaussian and countsketch trials in an op"
    units = {m: spec[0] for m, spec in LAYER_METRICS.items()}
    units.update({"bench.countsketch_speedup": "ratio", "trace.overhead_s": "s",
                  "trace.coverage": "ratio", "trace.spans": "count"})
    return values, units, absent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "idsketch" / "__init__.py").is_file():
        print(f"error: no idsketch sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        wl, state, own_setup = timed_setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        return benchmark(args, wl, state, own_setup, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def benchmark(args, wl, state, own_setup, workdir):
    setups = [own_setup] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    workload = wl.WORKLOADS[args.workload]

    replay_dir = tempfile.mkdtemp(prefix="replay-", dir=workdir)
    failures = replay_check(wl, args.workload, args.seed, state, replay_dir)
    attempted, failed = 1, int(bool(failures))

    tracer = None
    if args.trace:
        tracer = Tracer(sys.modules["idsketch"])
    walls, outcomes = [], []  # untraced ops that passed
    traced_walls = []
    i = 0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        i += 1
        use = tracer if tracer is not None and i % 2 == 1 else None
        wall, out, op_failures = run_op(
            workload, state, derive_seed(args.seed, "op", i), use, i
        )
        attempted += 1
        if op_failures:
            failed += 1
            failures.extend(f"op {i}: {msg}" for msg in op_failures)
            continue
        if use is None:
            walls.append(wall)
            outcomes.append(out)
        else:
            traced_walls.append(wall)
    phase_s = time.perf_counter() - start

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": failed,
        "ops_untraced": len(walls), "ops_traced": len(traced_walls),
        "setup_samples_s": setups, "op_walls_s": walls, "traced_op_walls_s": traced_walls,
        "failures": failures[:50],
        "environment": environment(),
    }
    if not walls or (tracer is not None and not traced_walls):
        print("error: no op passed its checks", file=sys.stderr)
        for msg in failures[:20]:
            print(f"  {msg}", file=sys.stderr)
        return 1
    if tracer is None:
        values, notes = end_to_end(
            statistics.median(setups), walls, outcomes, attempted, failed, phase_s
        )
        units = END_TO_END_UNITS
        record["notes"] = notes
    else:
        values, units, absent = per_layer(tracer, traced_walls, walls, outcomes)
        record["absent"] = absent
        record["notes"] = [f"{len(traced_walls)} traced and {len(walls)} untraced ops"]
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    record["metrics"] = values
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    for note in record["notes"]:
        print(note)
    for metric, why in record.get("absent", {}).items():
        print(f"absent on {args.workload}: {metric}: {why}")
    for msg in failures[:20]:
        print(f"failed: {msg}")
    print("environment: " + json.dumps(record["environment"]))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
