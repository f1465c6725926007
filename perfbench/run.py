#!/usr/bin/env python3
"""Benchmark of aoisched: one workload per invocation.

    python3 perfbench/run.py --workload monte_carlo --seed 1 --seconds 60 --trace 0

Run from the root of a checkout; aoisched is imported from its src/
directory. The workload is repeated (set-up, timed body, checks) until
--seconds is spent, at least MIN_REPS times. With --trace 0 the last
stdout line carries the end-to-end metrics (medians over repetitions).
With --trace 1 untraced and traced repetitions alternate for half the
time, then one repetition runs with tracemalloc on, and the last line
carries the per-layer metrics. Reports, span dumps and output digests
are written under perfbench/out/. BLAS runs one thread.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread, set before numpy loads: on a machine with two cores,
# BLAS threads spinning beside the program measure the scheduler rather
# than the program, and their number changes floating-point results.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, setup  # noqa: E402

MIN_REPS = 3
MIN_TRACE_PAIRS = 1
# Set-ups timed per repetition; the last one feeds the body.
SETUPS_PER_REP = 5
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class SourceMissing(RuntimeError):
    """The checkout has no aoisched sources to benchmark."""


def import_fresh():
    """Import aoisched from SRC anew, dropping any earlier import."""
    for name in [m for m in sys.modules if m.split(".")[0] == "aoisched"]:
        del sys.modules[name]
    pkg = importlib.import_module("aoisched")
    if Path(pkg.__file__).resolve().parent != SRC / "aoisched":
        raise SourceMissing(f"aoisched imported from {pkg.__file__}, not {SRC}")
    return pkg


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def source_digest() -> str:
    files = sorted((SRC / "aoisched").glob("*.py"))
    return sha256(b"".join(f.name.encode() + f.read_bytes() for f in files))


def repetition(workload, params, seed, rep_dir, tracer=None):
    """Set up SETUPS_PER_REP times, run the body once, check its outputs."""
    setups = []
    for _ in range(SETUPS_PER_REP):
        shutil.rmtree(rep_dir, ignore_errors=True)
        start = time.perf_counter()
        pkg = import_fresh()
        run = setup(pkg, workload, params, seed, rep_dir)
        setups.append(time.perf_counter() - start)
    # Collect the garbage of earlier imports now, not inside the body.
    gc.collect()
    body = None
    if tracer is not None:
        tracer.install(pkg)
        body = tracer.open("bench.body")
    start = time.perf_counter()
    try:
        workload.body(run)
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.close(body)
            tracer.uninstall()
    try:
        workload.check(run)
    except Exception:  # a check that cannot run is a failed check
        run.check("checks ran", False, traceback.format_exc())
    digests = {label: sha256(Path(path).read_bytes())
               for label, path in sorted(run.outputs.items())
               if Path(path).is_file()}
    digests["values"] = sha256(json.dumps(run.values, sort_keys=True).encode())
    output_bytes = sum(Path(p).stat().st_size for p in run.outputs.values()
                       if Path(p).is_file())
    run.pkg = None  # let this repetition's modules be collected
    return {"setup_s": setups, "wall_s": wall, "run": run, "digests": digests,
            "body": body, "output_bytes": output_bytes}


def repeat(step, budget, min_reps):
    """Call step(i) until budget seconds are spent, at least min_reps times.

    Another call is made while it would end within half a mean call past
    the budget, so that runs last the budget on average.
    """
    results = []
    start = time.perf_counter()
    while True:
        results.append(step(len(results)))
        elapsed = time.perf_counter() - start
        if len(results) >= min_reps and elapsed * (1 + 0.5 / len(results)) > budget:
            return results


def compare_digests(store: Path, key: str, digests: dict):
    """Compare with an earlier run of the same key, then record this one."""
    known = json.loads(store.read_text()) if store.is_file() else {}
    earlier = known.get(key)
    if earlier is None:
        known[key] = digests
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        tmp.replace(store)
        return True, "first run of this key"
    return earlier == digests, {"earlier": earlier, "now": digests}


def last_trace_overhead(out: Path, name: str):
    """Tracing overhead of the newest traced run of name, if any."""
    reports = sorted(out.glob(f"report-{name}-seed*-trace1.json"),
                     key=lambda p: p.stat().st_mtime)
    if not reports:
        return None
    doc = json.loads(reports[-1].read_text())
    return {"seed": doc["provenance"]["seed"],
            "overhead_s": doc["result"]["metrics"]["trace.overhead_s"]["value"]}


def provenance(workload, params, seed) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "workload": workload.name, "why": workload.why, "seed": seed,
        "params": params, "configs": workload.config_docs(params),
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "l2": caches.get("L2"), "l3": caches.get("L3"),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": commit, "source_sha256": source_digest(),
    }


def run_benchmark(name, seed, seconds, trace, params=None, out=OUT) -> dict:
    """Run one workload and return its report; the result is report["result"]."""
    if not (SRC / "aoisched" / "__init__.py").is_file():
        raise SourceMissing(f"no aoisched sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workload = WORKLOADS[name]
    params = dict(workload.defaults if params is None else params)
    out.mkdir(parents=True, exist_ok=True)
    work = out / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = tracing.Tracer() if trace else None
    try:
        if trace:
            # Alternate untraced and traced repetitions so that drift in
            # machine speed affects both sides of the tracing overhead.
            def pair(i):
                plain = repetition(workload, params, seed, work / f"plain{i}")
                tracer.run_id = f"{name}:{seed}:{i}"
                return plain, repetition(workload, params, seed,
                                         work / f"traced{i}", tracer)

            pairs = repeat(pair, seconds / 2, MIN_TRACE_PAIRS)
            reps = [plain for plain, _ in pairs]
            traced = [rep for _, rep in pairs]
            tracer.track_memory = True
            tracer.run_id = f"{name}:{seed}:memory"
            memory = [repetition(workload, params, seed, work / "memory", tracer)]
        else:
            reps = repeat(lambda i: repetition(workload, params, seed,
                                               work / f"rep{i}"),
                          seconds, MIN_REPS)
            traced, memory = [], []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    every = reps + traced + memory
    attempted = sum(r["run"].attempted for r in every)
    failed = sum(r["run"].failed for r in every)
    first = reps[0]["digests"]
    mismatched = [i for i, r in enumerate(every) if r["digests"] != first]
    attempted += 2
    failed += bool(mismatched)
    key = f"{name}|seed={seed}|params={json.dumps(params, sort_keys=True)}"
    key += f"|source={source_digest()}"
    same, detail = compare_digests(out / "digests.json", key, first)
    failed += not same

    walls = [r["wall_s"] for r in reps]
    wall = statistics.median(walls)
    if trace:
        def reduce(rep):
            spans = [s for s in tracer.spans if s.run == rep["body"].run]
            return layers.reduce(spans, rep["body"], rep["output_bytes"])

        per_rep = [reduce(r) for r in traced]
        values = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
        values.update((k, v) for k, v in reduce(memory[0]).items()
                      if ".peak_alloc_mb" in k)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        values["trace.overhead_s"] = traced_wall - wall
        values["user_slots_per_s"] = values.pop("user_slots") / wall
        metrics = {s["name"]: {"value": float(values[s["name"]]), "unit": s["unit"]}
                   for s in layers.specs()}
        spans_path = out / f"spans-{name}-seed{seed}.jsonl"
        spans_path.write_text("".join(json.dumps(s.as_dict()) + "\n"
                                      for s in tracer.spans))
    else:
        setups = [s for r in reps for s in r["setup_s"]]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    runs = [r["run"] for r in every]
    prov = provenance(workload, params, seed)
    prov["tracing_overhead"] = (
        {"seed": seed, "overhead_s": values["trace.overhead_s"]} if trace
        else last_trace_overhead(out, name))
    report = {
        "provenance": prov,
        "trace": bool(trace),
        "seconds": seconds,
        "repetitions": len(reps),
        "traced_repetitions": len(traced) + len(memory),
        "wall_s_samples": walls,
        "traced_wall_s_samples": [r["wall_s"] for r in traced],
        "digests": first,
        "digest_mismatch_repetitions": mismatched,
        "digest_vs_earlier_run": {"ok": same, "detail": detail},
        "info": runs[0].info,
        "failed_checks": [c for r in runs for c in r.checks if not c["ok"]],
        "checks_per_repetition": len(runs[0].checks),
        "errors": [e for r in runs for e in r.errors],
        "result": {"correct": failed == 0, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
    }
    path = out / f"report-{name}-seed{seed}-trace{int(bool(trace))}.json"
    path.write_text(json.dumps(report, indent=1, default=str))
    return report


def print_report(report) -> None:
    prov = report["provenance"]
    print(json.dumps({"provenance": prov}, default=str))
    for key in ("info", "failed_checks", "errors"):
        if report[key]:
            print(json.dumps({key: report[key]}, default=str))
    title = "per-layer metrics (traced)" if report["trace"] else "end-to-end metrics"
    print(f"{prov['workload']} seed={prov['seed']}: {title}, "
          f"{report['repetitions']} untraced + {report['traced_repetitions']} "
          f"traced repetitions")
    for name, metric in report["result"]["metrics"].items():
        print(f"  {name:48s} {metric['value']:16.6g} {metric['unit']}")
    print(json.dumps(report["result"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except SourceMissing as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
