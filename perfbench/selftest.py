"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json prints with its unit, that
count metrics repeat exactly at a fixed seed, that a deliberately wrong
result is counted as a failed operation, that the tracing wrappers are gone
after a traced run, and that the benchmark refuses to run without the
package sources. Exits 0 when every check passes.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads and imports the package from ./src
import spans

import cate_ebm as ce
from cate_ebm import evalx

SPEC = json.loads(run.BENCHMARK.read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run_cli(workload, trace, cwd=run.ROOT, script=Path(run.__file__)):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "0",
           "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_printed_metrics():
    counts = {}
    for workload in run.WORKLOAD_NAMES:
        for trace, group in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
            proc = run_cli(workload, trace)
            tag = f"{workload} trace {trace}"
            check(proc.returncode == 0, f"{tag}: exit code 0 ({proc.stderr[-300:]!r})")
            if proc.returncode != 0:
                continue
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            check(set(result) == RESULT_KEYS, f"{tag}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{tag}: correct with {result['attempted']} attempted, "
                  f"{result['failed']} failed")
            want = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{tag}: metrics are exactly the {group} list with units")
            check(all(math.isfinite(v["value"]) for v in result["metrics"].values()),
                  f"{tag}: every value is finite")
            printed = {line.split()[1] for line in lines[:-1] if line.startswith("metric ")}
            check(all(any(line.startswith(f"metric {k} = ") and line.endswith(f" {u}")
                          for line in lines) for k, u in want.items()) and printed == set(want),
                  f"{tag}: one 'metric <name> = <value> <unit>' line per metric")
            if trace:
                counts.setdefault(workload, []).append(
                    {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"})
    for workload, runs in counts.items():
        check(len(runs) == 2 and runs[0] == runs[1] and any(runs[0].values()),
              f"{workload}: count metrics repeat exactly at a fixed seed {runs[0]}")


class patched:
    """Temporarily replace owner.attr with make(original)."""

    def __init__(self, owner, attr, make):
        self.owner, self.attr, self.make = owner, attr, make

    def __enter__(self):
        self.original = getattr(self.owner, self.attr)
        setattr(self.owner, self.attr, self.make(self.original))

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self.original)


def _perturbed_load(load):
    def wrong(path):
        model = load(path)
        model.net.params[0] = model.net.params[0] + 1e-12
        return model
    return wrong


def check_wrong_results_fail():
    tampers = {
        "ebm_n2000": (ce, "load_model", _perturbed_load),
        "cate_n1000": (ce, "pehe", lambda pehe: lambda *a: pehe(*a) * (1 + 1e-3)),
        "pipeline_desk": (evalx, "pehe", lambda pehe: lambda *a, **k: math.nan),
    }
    for workload, (owner, attr, make) in tampers.items():
        with patched(owner, attr, make):
            record = run.run_workload(workload, 0, 0, False, size="tiny")
        check(record["failed"] >= 1 and not record["correct"],
              f"{workload}: a wrong {attr} result counts in ops_failed "
              f"({record['failed']} of {record['attempted']})")
        record = run.run_workload(workload, 0, 0, False, size="tiny")
        check(record["failed"] == 0, f"{workload}: passes again once restored")


def installed_wrappers():
    """Names of traced attributes that currently hold a wrapper (should be none)."""
    found = []
    for key, mod in sorted(sys.modules.items()):
        if key != "cate_ebm" and not key.startswith("cate_ebm."):
            continue
        for attr, val in vars(mod).items():
            if hasattr(val, "__traced__"):
                found.append(f"{key}.{attr}")
            if isinstance(val, type):
                found += [f"{key}.{attr}.{m}" for m, v in vars(val).items()
                          if hasattr(v, "__traced__")]
    return sorted(set(found))


def check_wrappers_removed():
    def snapshot():
        out = {}
        for mod_name, attr, _ in spans.TRACED:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls, meth = attr.split(".")
                owner, attr = getattr(owner, cls), meth
            out[(mod_name, attr)] = owner.__dict__[attr]
        return out

    before = snapshot()
    for workload in run.WORKLOAD_NAMES:
        record = run.run_workload(workload, 0, 0, True, size="tiny")
        check(any(v > 0 for v in record["metrics"].values()),
              f"{workload}: traced run recorded spans")
        check(installed_wrappers() == [] and snapshot() == before,
              f"{workload}: every traced function is the original again")


def check_refuses_without_sources():
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
    try:
        shutil.copy(run.BENCHMARK, bare / "BENCHMARK.json")
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_cli(run.WORKLOAD_NAMES[0], 0, cwd=bare,
                       script=bare / run.HERE.name / "run.py")
        check(proc.returncode != 0 and proc.stdout.strip() == "",
              f"without src/: exit code {proc.returncode} and no result printed")
    finally:
        shutil.rmtree(bare)


def main():
    run.OUT.mkdir(exist_ok=True)
    check_printed_metrics()
    check_wrong_results_fail()
    check_wrappers_removed()
    check_refuses_without_sources()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
