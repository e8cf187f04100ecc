"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-b1 --seed 0 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --seed 0

With ``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics. A traced run makes an untraced pass
first and a traced pass second, so it also reports the tracing overhead and
checks that both passes wrote the same checkpoints and reports. Earlier
lines give a table with units and one JSON line of details: environment
facts, load averages, digests, correctness findings, held-out accuracy and
fail_frac. ``--workload all`` runs every workload in its own process.

Seed 0 is the default; seed 1 is the seed on which a later claim of a gain
is confirmed. No BLAS thread variable is set, so a change that sets threads
inside the program shows in the numbers; the effective thread count is
recorded with each result.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench_state")

DEFAULT_SEED = 0
CONFIRM_SEED = 1
DEFAULT_SECONDS = 8

E2E_UNITS = {
    "setup_s": "s",
    "train_inst_per_s": "1/s",
    "eval_pairs_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _import_program():
    """Import the package from this checkout's src/ and nowhere else."""
    package = os.path.join(SRC, "clozerm", "__init__.py")
    if not os.path.isfile(package):
        sys.exit(f"perfbench: {package} not found; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import clozerm

    if os.path.dirname(os.path.abspath(clozerm.__file__)) != os.path.dirname(package):
        sys.exit(f"perfbench: imported clozerm from {clozerm.__file__}, not from {SRC}")


def code_hash() -> str:
    """sha256 over the package's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "clozerm"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def blas_facts():
    """BLAS library from NumPy's build record and the thread count the
    loaded OpenBLAS reports (None when it cannot be asked)."""
    import numpy as np

    facts = {"library": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["library"], facts["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError, AttributeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["threads"] = fn()
                return facts
    return facts


def environment():
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_facts(),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fail_frac(attempted: int, failed: int) -> float:
    return failed / attempted if attempted else 1.0


def count_units(p, correct: bool):
    """(attempted, failed): every training instance and eval pair is a unit;
    skipped ones failed, and a run whose checks fail counts all units as
    failed."""
    attempted = max(p.attempted, 1)
    return attempted, (p.failed if correct else attempted)


def compare_digests(workload, seed, digests, report_json, problems):
    """Check this run's checkpoint and report digests against an earlier run
    of the same workload, seed and code in this checkout; store them if this
    is the first."""
    os.makedirs(STATE, exist_ok=True)
    path = os.path.join(STATE, "digests.json")
    try:
        with open(path) as fh:
            store = json.load(fh)
    except (OSError, ValueError):
        store = {}
    key = f"{workload}/seed={seed}/code={code_hash()[:16]}"
    mine = dict(digests, report=hashlib.sha256(report_json.encode()).hexdigest())
    earlier = store.get(key)
    if earlier is None:
        store[key] = mine
        tmp = f"{path}.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(store, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
    elif earlier != mine:
        changed = sorted(k for k in set(earlier) | set(mine) if earlier.get(k) != mine.get(k))
        problems.append(f"digests differ from an earlier run with the same seed: {changed}")


def run_pass(workload, seed, seconds, tracer=None):
    import workloads

    workdir = os.path.join(STATE, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    p = workloads.Pass(seed, seconds, workdir, tracer)
    try:
        if tracer is None:
            workloads.WORKLOADS[workload](p)
        else:
            import tracing

            with tracing.traced(tracer):
                workloads.WORKLOADS[workload](p)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return p


def run_workload(workload, seed, seconds, trace):
    import tracing
    import workloads

    load_before = os.getloadavg()
    base = run_pass(workload, seed, seconds)
    problems = list(base.problems)
    e2e = workloads.end_to_end(base)
    e2e["peak_rss_mb"] = peak_rss_mb()

    absent, missing = [], []
    if trace:
        tracer = tracing.Tracer()
        traced_pass = run_pass(workload, seed, seconds, tracer)
        problems += [f"traced pass: {x}" for x in traced_pass.problems]
        if traced_pass.digests != base.digests:
            problems.append("traced pass wrote other checkpoints than the untraced pass")
        if traced_pass.report_json != base.report_json:
            problems.append("traced pass gave another eval report than the untraced pass")
        metrics, absent = tracing.layer_metrics(tracer, traced_pass.eval_pairs)
        missing = tracer.missing
        units = {name: layer_unit(name) for name in metrics}
        rate = workloads.PRIMARY_RATE[workload]
        untraced = e2e[rate]
        traced = workloads.end_to_end(traced_pass)[rate]
        metrics.update({"trace.overhead": traced / untraced,
                        "trace.untraced_per_s": untraced, "trace.traced_per_s": traced})
        units.update({"trace.overhead": "ratio", "trace.untraced_per_s": "1/s", "trace.traced_per_s": "1/s"})
    else:
        metrics, units = e2e, dict(E2E_UNITS)

    compare_digests(workload, seed, base.digests, base.report_json or "", problems)
    correct = not problems
    attempted, failed = count_units(base, correct)
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "load_before": load_before, "load_after": os.getloadavg(),
        "heldout_acc": base.heldout_acc, "domain_acc": base.domain_acc,
        "fail_frac": fail_frac(attempted, failed), "digests": base.digests,
        "problems": problems, "absent": absent, "missing_hooks": missing,
    }
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return detail, result


def layer_unit(name: str) -> str:
    if name.endswith(".n"):
        return "count"
    if "_ms" in name:
        return "ms"
    if "_us" in name:
        return "us"
    return "bytes" if name == "checkpoint.bytes" else "count"


def print_table(detail, result):
    print(f"# {detail['workload']} seed={detail['seed']} trace={detail['trace']}")
    for name, m in result["metrics"].items():
        print(f"{name:<44} {m['value']:>16.6g} {m['unit']}")
    if detail["heldout_acc"] is not None:
        print(f"{'heldout_acc':<44} {detail['heldout_acc']:>16.6g} fraction")
    print(f"{'fail_frac':<44} {detail['fail_frac']:>16.6g} fraction")
    for problem in detail["problems"]:
        print(f"CHECK FAILED: {problem}")


def run_all(args):
    """Each workload in its own process, so peak_rss_mb is per workload."""
    import workloads

    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            totals["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(totals))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="train-b1, adapt-dora, eval-mixed or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed; seed {CONFIRM_SEED} is where a claimed gain is confirmed")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="least length of a pass's measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    if args.workload == "all":
        run_all(args)
        return
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    start = time.perf_counter()
    detail, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    detail["wall_s"] = time.perf_counter() - start
    print_table(detail, result)
    print(json.dumps(detail))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
