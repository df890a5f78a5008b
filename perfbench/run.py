"""Benchmark of cate_ebm: EBM training, kernel meta-learners and the desk
pipeline, with an optional traced run that reports per-layer metrics.

    python3 perfbench/run.py                      # every workload, untraced
    python3 perfbench/run.py --workload cate_n1000 --seed 3 --seconds 30 --trace 1

Run from the repository root. One workload runs per process, so peak RSS
belongs to that workload; without --workload each workload gets its own
child process. The package is imported from ./src only. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Run records and span files go to .perfbench/.
"""

import os

# Pin BLAS before numpy loads: one thread was as fast as two on a 2-core box,
# and it keeps the load inside nproc.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BENCHMARK = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 5

sys.path.insert(0, str(SRC))
try:
    import cate_ebm  # noqa: E402
except ImportError as exc:
    sys.exit(f"perfbench: cannot import cate_ebm from {SRC}: {exc}")
if Path(cate_ebm.__file__).resolve().parent.parent != SRC.resolve():
    sys.exit(f"perfbench: cate_ebm came from {cate_ebm.__file__}, not {SRC}")

import numpy as np  # noqa: E402

import probe  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

WORKLOADS = {
    "ebm_n2000": (W.ebm_setup, lambda st, first, timer: W.ebm_op(st, timer)),
    "cate_n1000": (W.cate_setup, W.cate_op),
    "pipeline_desk": (W.pipeline_setup, lambda st, first, timer: W.pipeline_op(st, timer)),
}
WORKLOAD_NAMES = tuple(WORKLOADS)


def machine_record():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]

    def getconf(name):
        try:
            res = subprocess.run(["getconf", name], capture_output=True, text=True,
                                 timeout=10, check=True)
            return int(res.stdout.strip())
        except (OSError, ValueError, subprocess.SubprocessError):
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "l2_cache_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": getconf("LEVEL3_CACHE_SIZE"),
    }


def summarize(values):
    """Median, the highest percentile with at least ten samples beyond it
    (when there are eleven or more samples), and the sample count."""
    v = sorted(values)
    n = len(v)
    out = {"median": statistics.median(v), "n": n}
    if n >= 11:
        out["tail_pct"] = 100 * (n - 10) // n
        out["tail"] = v[n - 11]
    return out


def _median(values):
    """Median, or 0.0 when every operation failed before it was timed."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def _units():
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def time_setup(name, seed, size):
    """Normalized time of a fresh process that imports, configures and
    generates the workload's data; median of SETUP_REPEATS."""
    timer = probe.PartTimer(probe.SpeedProbe())
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--size", size, "--setup-only"]
    for _ in range(SETUP_REPEATS):
        timer("setup_s", subprocess.run, cmd, cwd=ROOT, check=True)
    return statistics.median(w * f for _, w, f in timer.parts), timer.parts


def _scaled(metrics, f):
    """Per-layer metrics with their timings normalized by factor f."""
    return {k: v * f if spans.LAYER_UNITS[k] == "s" else v for k, v in metrics.items()}


def run_workload(name, seed, seconds, trace, size="full", spans_path=None):
    """Run one workload for `seconds`; returns the result record.

    Untraced (trace=False): every operation is timed bare. Traced: operations
    alternate bare and traced, starting bare, and the per-layer metrics come
    from the traced ones. Either way operation 0 is bare, and for cate_n1000
    it runs on the reference data. All timings are normalized by the speed
    probe (see probe.py).
    """
    setup, op = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT)
    timer = probe.PartTimer(probe.SpeedProbe())
    tracer = spans.Tracer() if trace else None
    outcomes, bare, traced_ops, units, derived = [], [], [], [], {}
    try:
        if tracer:
            tracer.install()
        try:
            state = timer("setup", setup, seed, size, work)
        finally:
            if tracer:
                tracer.uninstall()
        setup_unit = (_scaled(spans.unit_metrics(tracer.spans, 0, tracer.mark()),
                              timer.parts[-1][2]) if tracer else None)
        del timer.parts[:]

        t_start = time.perf_counter()
        op_walls = []
        i = 0
        while True:
            traced = trace and i % 2 == 1
            lo, first_part = (tracer.mark() if traced else 0), len(timer.parts)
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                res, extra = op(state, i == 0, timer)
            except Exception:  # a failing operation is counted, and the run goes on
                traceback.print_exc()
                res, extra = [(f"{name}#{i}", False, "raised")], {}
            finally:
                if traced:
                    tracer.uninstall()
            op_walls.append(time.perf_counter() - t0)
            outcomes += [(f"op{i}:{label}", ok, detail) for label, ok, detail in res]
            parts = timer.parts[first_part:]
            wall = sum(w for _, w, _ in parts)
            norm = sum(w * f for _, w, f in parts)
            if traced:
                traced_ops.append(norm)
                if wall > 0:
                    units.append(_scaled(spans.unit_metrics(tracer.spans, lo, tracer.mark()),
                                         norm / wall))
            else:
                bare.append(parts)
                for key, val in extra.items():
                    derived.setdefault(key, []).append(val)
            i += 1
            elapsed = time.perf_counter() - t_start
            enough = i >= (2 if trace else 1)
            if enough and elapsed + statistics.median(op_walls) > seconds:
                break
        if tracer and spans_path:
            tracer.write(spans_path, t_start)
    finally:
        shutil.rmtree(work)

    by_part = {}
    for parts in bare:
        for part, w, f in parts:
            by_part.setdefault(part, []).append(w * f)
    bare_ops = [sum(w * f for _, w, f in parts) for parts in bare]
    failed = [o for o in outcomes if not o[1]]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "size": size, "correct": not failed, "attempted": len(outcomes),
        "failed": len(failed), "failures": failed,
        "native": {k: summarize(v) for k, v in {**by_part, **derived}.items()},
        "ops": {"bare": summarize(bare_ops)} if bare_ops else {},
        "parts_wall_factor": timer.parts,
        "probe_ref_s": probe.REF_S,
    }
    if trace:
        metrics = {k: setup_unit[k] + _median(u[k] for u in units) for k in setup_unit}
        metrics["trace_overhead_s"] = _median(traced_ops) - _median(bare_ops)
        record["ops"]["traced"] = summarize(traced_ops)
    else:
        metrics = {
            # one operation = one of each part; each part at its median
            "op_s": sum(_median(v) for v in by_part.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    record["metrics"] = metrics
    return record


def print_record(record, units):
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']} seconds {record['seconds']}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for kind, s in record["ops"].items():
        print(f"ops {kind}: median {s['median']:.6g} s over {s['n']} operations"
              + (f", p{s['tail_pct']} {s['tail']:.6g} s" if "tail" in s else ""))
    for key, s in record["native"].items():
        unit = "1/s" if key.endswith("_per_s") else "s"
        tail = f", p{s['tail_pct']} {s['tail']:.6g} {unit}" if "tail" in s else ""
        print(f"native {key} = {s['median']:.6g} {unit} (median of {s['n']}{tail})")
    for key, val in record["metrics"].items():
        print(f"metric {key} = {val:.6g} {units[key]}")
    print(f"ops_failed {record['failed']} of ops_attempted {record['attempted']}")
    for label, _, detail in record["failures"]:
        print(f"FAILED {label}: {detail}", file=sys.stderr)


def run_all(args):
    """Each workload in its own child process; a summary at the end."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        results[name] = json.loads(lines[-1])
        code = code or (0 if results[name]["correct"] else 1)
    print(json.dumps(results, sort_keys=True))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload; default: every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(W.SIZES), default="full", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads(BENCHMARK.read_text())["run_seconds"]

    if args.setup_only:
        OUT.mkdir(exist_ok=True)
        work = tempfile.mkdtemp(prefix="setup-", dir=OUT)
        try:
            WORKLOADS[args.workload][0](args.seed, args.size, work)
        finally:
            shutil.rmtree(work)
        return 0
    if args.workload is None:
        return run_all(args)

    units = _units()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          size=args.size, spans_path=OUT / f"spans-{args.workload}.csv")
    if not args.trace:
        setup_s, setup_parts = time_setup(args.workload, args.seed, args.size)
        record["metrics"] = {"setup_s": setup_s, **record["metrics"]}
        record["setup_wall_factor"] = setup_parts
    record["machine"] = machine_record()
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    print_record(record, units)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()}
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
