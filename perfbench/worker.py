"""Workload process of the ellipreg benchmark.

    python3 worker.py --probe          import ellipreg.cli, print the clock
    python3 worker.py PLAN.json        run the plan's jobs, write its result

Both forms print or record ``time.monotonic()`` right after
``import ellipreg.cli`` returns, so the parent can time set-up from the
moment it started the process.  A run imports the program once, then runs
its jobs one after another through ``cli.main`` in passes over the job
list, for as many passes as fit in the plan's seconds.  Only ``cli.main``
calls are timed; checking the reports happens between them.
"""

import sys
import time

import ellipreg.cli as cli

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402  (set-up is timed up to the line above)
import ctypes
import glob
import importlib.util
import io
import json
import os
import platform
import resource

import numpy
import scipy

import tracer
import workloads


def blas_threads():
    """Threads of the OpenBLAS bundled with numpy, or None if not found."""
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(checkout):
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "pyamg_importable": importlib.util.find_spec("pyamg") is not None,
        "blas_threads": blas_threads(),
        "ellipreg": os.path.relpath(os.path.dirname(cli.__file__), checkout),
    }


def run_job(job, schema, record=None):
    """One cli.main call: (seconds, status, verdict summary, reason, report)."""
    out_dir = job["out_dir"]
    report_path = os.path.join(out_dir, "report.json")
    if os.path.exists(report_path):
        os.remove(report_path)
    os.environ["ELLIPREG_OUTDIR"] = out_dir
    argv = [job["subcommand"], job["config_path"]]
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            rc = (cli.main(argv) if record is None
                  else record.run(tracer.ROOT, cli.main, argv))
    except SystemExit as e:
        rc = e.code
    except Exception as e:  # a raising job is a failed job, not a dead run
        dt = time.perf_counter() - t0
        return dt, workloads.FAILED, None, f"raised {type(e).__name__}: {e}", None
    dt = time.perf_counter() - t0
    if rc != 0:
        return dt, workloads.FAILED, None, f"exit code {rc}", None
    try:
        report = workloads.load_json(report_path)
    except (OSError, ValueError) as e:
        return dt, workloads.FAILED, None, f"no readable report: {e}", None
    status, summary, reason = workloads.check_report(job, report, schema)
    return dt, status, summary, reason, report


def run_pass(jobs, schema, results, record=None):
    """Run every job once; untraced passes add to each job's times."""
    for job in jobs:
        solves_before = record.calls["dynsys.integrate_system"] if record else 0
        dt, status, summary, reason, report = run_job(job, schema, record)
        res = results[job["id"]]
        res["statuses"].append(status)
        res["summary"] = summary
        if reason:
            res["reason"] = reason
        if record is None:
            res["times"].append(dt)
            continue
        res["ode_solves"] = record.calls["dynsys.integrate_system"] - solves_before
        res["traced_s"] = dt
        if report is not None:
            record.counts["cli.report_wall_time_s"] += \
                report["provenance_volatile"]["wall_time_s"]


def main(plan_path):
    plan = workloads.load_json(plan_path)
    checkout = plan["checkout"]
    src = os.path.realpath(os.path.join(checkout, "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"ellipreg imported from {cli.__file__}, not {src}")
    schema = cli.load_schema()
    jobs = plan["jobs"]
    results = {job["id"]: {"times": [], "statuses": []} for job in jobs}
    seconds = plan["seconds"]
    traced = []       # one record per traced pass

    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run_pass(jobs, schema, results)
        if plan["trace"]:
            untraced_s = sum(res["times"][-1] for res in results.values())
            rec = tracer.Recorder()
            with tracer.Patch(rec) as patch:
                run_pass(jobs, schema, results, rec)
            traced.append({
                "untraced_s": untraced_s,
                "traced_s": sum(res["traced_s"] for res in results.values()),
                "self_s": dict(rec.self_s), "calls": dict(rec.calls),
                "counts": dict(rec.counts), "peak_mb": dict(rec.peak_mb),
                "solves": rec.solves, "missing": patch.missing,
                "ode_solves": {jid: res["ode_solves"]
                               for jid, res in results.items()},
            })
        last = time.perf_counter() - t0
        # start another pass only if it should end within the run's seconds
        if time.perf_counter() - start + last > seconds:
            break

    out = {
        "imported_at": IMPORTED_AT,
        "environment": environment(checkout),
        "jobs": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "traced": traced,
    }
    with open(plan["result_path"], "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    if sys.argv[1:] == ["--probe"]:
        print(repr(IMPORTED_AT))
    else:
        main(sys.argv[1])
