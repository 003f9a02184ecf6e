#!/usr/bin/env python3
"""bcsgap benchmark: one workload, measured for a fixed time, oracle-checked.

    python3 perfbench/run.py --workload study --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The package is imported from its
`src` directory, never from an installed copy; without it the run exits
non-zero and prints no result.  Human-readable lines come first.  The last
line of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`, holding the end-to-end metrics of BENCHMARK.json (`--trace 0`) or
its per-layer metrics (`--trace 1`).  The traced run alternates untraced and
traced passes and writes the spans of its first traced pass to
`.perfbench_out/`.  README.md in this directory explains every metric.
"""

import os

# Pinned before numpy loads: the benchmark is one thread on a small machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# The CLI reads this at call time and it silently changes every result.
UNSET_RELTOL = os.environ.pop("BCSGAP_QUAD_RELTOL", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 11
PROBE_EVERY_S = 0.2  # interval of the speed probe's timer

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from probe import REFERENCE_S, SpeedClock  # noqa: E402
from tracing import LAYERS, Tracer, layer_stats  # noqa: E402

KIND_LATENCY = {"tc": "tc_s", "curve": "curve_s", "thermo": "thermo_point_s",
                "jump": "jump_s", "verify": "verify_s"}

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import bcsgap.cli
t1 = time.perf_counter()
bcsgap.model.build_params(**json.loads(sys.argv[1]))
sys.path.insert(0, sys.argv[2])
from probe import probe
print(json.dumps({"import_s": t1 - t0, "probe_s": 0.5 * (probe() + probe())}))
"""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="bcsgap benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_library():
    if not (SRC / "bcsgap" / "__init__.py").is_file():
        raise SystemExit(f"error: no bcsgap sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import bcsgap
    import bcsgap.cli

    if Path(bcsgap.__file__).resolve().parent != SRC / "bcsgap":
        raise SystemExit(f"error: imported bcsgap from {bcsgap.__file__}, not from {SRC}")
    return types.SimpleNamespace(version=bcsgap.__version__,
                                 **{m: sys.modules[f"bcsgap.{m}"] for m in LAYERS})


def environment():
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "BCSGAP_QUAD_RELTOL": "not set" if UNSET_RELTOL is None
        else f"unset by the benchmark (was {UNSET_RELTOL!r})",
    }


def measure_setup(workload, seed):
    """Fresh interpreters that import bcsgap.cli and build the workload's
    first parameters.  Returns medians of the wall time and of the import
    time, both as measured and scaled by the child's own speed probe."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    arg = json.dumps(workloads.first_params_kwargs(workload, seed))
    rows = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, arg, str(HERE)], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        child = json.loads(proc.stdout.splitlines()[-1])
        scale = REFERENCE_S / child["probe_s"]
        rows.append((wall * scale, child["import_s"] * scale, wall))
    return [statistics.median(col) for col in zip(*rows)]


class Record:
    __slots__ = ("kind", "raw", "norm", "passed", "error")

    def __init__(self, kind, raw, passed, error):
        self.kind, self.raw, self.norm = kind, raw, raw
        self.passed, self.error = passed, error


class PassResult:
    def __init__(self, records, outputs):
        self.records = records
        self.outputs = outputs
        self.raw = sum(r.raw for r in records)
        self.norm = sum(r.norm for r in records)


def run_op(op):
    """Returns the op's output and None, or None and the error it raised."""
    try:
        return op.run(), None
    except Exception as exc:  # a raising op is a failed op, not a crash
        error = f"{type(exc).__name__}: {exc}"
        if op.kind == "tc":
            op.group.error = error
        return None, error


def check_op(op, out):
    """Returns None if the output meets the op's oracle, else the miss."""
    try:
        op.check(out)
    except AssertionError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def known_defect_report(lib):
    """Runs the weak-sweep ops of the defect region once, untimed, and
    returns how many there are and the failures by kind and error type."""
    ops = workloads.defect_ops(lib)
    failures = {}
    for op in ops:
        out, error = run_op(op)
        error = error or check_op(op, out)
        if error is not None:
            key = (op.kind, error.split(":", 1)[0])
            failures[key] = failures.get(key, 0) + 1
    return len(ops), failures


def run_pass(lib, workload, seed, clock, tracer=None):
    """One pass.  Each op's time excludes the probes that ran inside it and
    is scaled by the mean of those probes and the two around them."""
    records, outputs, windows = [], [], []
    clock.sample()
    for i, op in enumerate(workloads.make_pass(lib, workload, seed)):
        if tracer is not None:
            tracer.op = i
        error = None
        first = len(clock.samples) - 1
        spent = clock.spent
        t0 = time.perf_counter()
        out, error = run_op(op)
        elapsed = time.perf_counter() - t0 - (clock.spent - spent)
        windows.append((first, len(clock.samples)))
        if error is None:
            error = check_op(op, out)
        records.append(Record(op.kind, elapsed, error is None, error))
        outputs.append(repr(out))
    clock.sample()
    for rec, (a, b) in zip(records, windows):
        rec.norm = rec.raw * REFERENCE_S / statistics.fmean(clock.samples[a:b + 1])
    return PassResult(records, outputs)


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, -(-q * len(ordered) // 100) - 1)]


def end_to_end(passes, setup):
    records = [r for res in passes for r in res.records]
    passed = [r for r in records if r.passed]
    norm = [r.norm for r in passed]
    raw = [r.raw for r in passed]
    setup_s, _, setup_raw = setup
    metrics = {
        "setup_s": ("s", setup_s, SETUP_REPEATS),
        "peak_rss_mb": ("MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "ops_per_s": ("1/s", len(passed) / sum(res.norm for res in passes), len(records)),
        "ops_failed_frac": ("ratio", 1.0 - len(passed) / len(records), len(records)),
        "pass_s": ("s", statistics.median(res.norm for res in passes), len(passes)),
        "op_s_p50": ("s", statistics.median(norm), len(norm)),
    }
    for kind, name in KIND_LATENCY.items():
        xs = [r.norm for r in passed if r.kind == kind]
        if xs:
            metrics[f"{name}_p50"] = ("s", statistics.median(xs), len(xs))
            if kind == "thermo":
                metrics[f"{name}_p90"] = ("s", percentile(xs, 90), len(xs))
    metrics["cpu_speed"] = ("ratio", statistics.median(r.norm / r.raw for r in passed), len(passed))
    metrics["setup_s_as_run"] = ("s", setup_raw, SETUP_REPEATS)
    metrics["ops_per_s_as_run"] = ("1/s", len(passed) / sum(res.raw for res in passes), len(records))
    metrics["op_s_p50_as_run"] = ("s", statistics.median(raw), len(raw))
    return metrics


def measure(lib, args):
    passes = []
    start = time.perf_counter()
    with SpeedClock(PROBE_EVERY_S) as clock:
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(run_pass(lib, args.workload, args.seed, clock))
    return passes


def measure_traced(lib, args):
    """Alternate untraced and traced passes.  Returns both lists, the layer
    stats of each traced pass with times scaled like the ops, and the
    tracer of the first traced pass."""
    plain, traced, stats, first = [], [], [], None
    start = time.perf_counter()
    with SpeedClock(PROBE_EVERY_S) as clock:
        while not traced or time.perf_counter() - start < args.seconds:
            plain.append(run_pass(lib, args.workload, args.seed, clock))
            with Tracer() as tracer:
                res = run_pass(lib, args.workload, args.seed, clock, tracer)
            traced.append(res)
            scale = res.norm / res.raw
            stats.append({k: v * scale if k.endswith("_s") else v
                          for k, v in layer_stats(tracer.spans).items()})
            first = first or tracer
    return plain, traced, stats, first


def per_layer(plain, traced, stats, setup):
    first = stats[0]
    layer = {k: statistics.median(s[k] for s in stats) if k.endswith("_s") else first[k]
             for k in first}
    overhead = statistics.median(r.norm for r in traced) - statistics.median(r.norm for r in plain)
    layer["trace.overhead_s"] = overhead
    layer["trace.overhead_frac"] = overhead / statistics.median(r.norm for r in plain)
    layer["cli.import_s"] = setup[1]
    repeats = all(s[k] == first[k] for s in stats for k in first if not k.endswith("_s"))
    return layer, repeats


def main(argv=None):
    args = parse_args(argv)
    lib = load_library()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment()
    print("env " + json.dumps(env))
    print(f"bcsgap {lib.version} from {SRC}; times scaled to a CPU where the probe takes {REFERENCE_S} s")
    setup = measure_setup(args.workload, args.seed)

    problems = []
    if args.trace == 0:
        passes = reference = measure(lib, args)
    else:
        reference, passes, stats, tracer = measure_traced(lib, args)
    every = passes if reference is passes else reference + passes
    if any(res.outputs != every[0].outputs for res in every):
        problems.append("outputs differ between passes of the same inputs"
                        + (", traced or untraced" if args.trace else ""))
    errors = [r.error for res in every for r in res.records if not r.passed]
    if errors:
        problems.append(f"{len(errors)} op(s) failed; first: {errors[0]}")

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} pass(es) of "
          f"{len(passes[0].records)} ops; closed loop, 1 client, 1 thread")
    if args.workload == "weak-sweep":
        total, failures = known_defect_report(lib)
        lo, hi = sorted(workloads.DEFECT_RANGE)
        print(f"known weak-coupling defect, probed once outside the measured workload: "
              f"{sum(failures.values())} of {total} ops fail at u0n0 {hi:g} to {lo:g}")
        for (kind, etype), n in sorted(failures.items()):
            print(f"  defect: {kind:7s} {etype:14s} x{n}")

    if args.trace == 0:
        metrics = end_to_end(passes, setup)
        for name, (unit, value, n) in metrics.items():
            print(f"metric {name:20s} {value:.6g} {unit} (n={n})")
        wanted = spec["end_to_end"]
        values = {name: value for name, (_, value, _) in metrics.items()}
    else:
        values, repeats = per_layer(reference, passes, stats, setup)
        if not repeats:
            problems.append("per-layer counts differ between traced passes")
        for name in sorted(values):
            print(f"layer {name:50s} {values[name]:.6g}")
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "env": env,
                            "fields": ["name", "start", "end", "parent", "op", "failed", "nodes"],
                            "layer": values})
        print(f"spans of the first traced pass: {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
        wanted = spec["per_layer"]

    for p in problems:
        print(f"INCORRECT: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(res.records) for res in passes),
        "failed": sum(not r.passed for res in passes for r in res.records),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
