"""ellipreg benchmark: end-to-end and per-layer metrics for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lab-2d --seed 1 --seconds 30 --trace 0

It writes each job's INI config into a temporary directory under
``.perfbench_work/``, times the set-up (process start until
``import ellipreg.cli`` returns) in several fresh processes, then starts one
workload process (``worker.py``) that runs the jobs through ``cli.main``
with ``ELLIPREG_OUTDIR`` pointing into the temporary directory.  Every
report is checked against the known answer.  The last line of standard
output is one JSON object: with ``--trace 0`` it holds the end-to-end
metrics of ``BENCHMARK.json``, with ``--trace 1`` the per-layer metrics of
a traced pass.  See README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 4          # plus the workload process itself
RUN_DEADLINE_S = 170.0    # the workload process is killed after this
COVERAGE_MIN = 0.9

# Pinned in every child: one BLAS thread each, so OpenBLAS threads do not
# compete with the timed work on a small machine.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def child_env(checkout):
    env = dict(os.environ, **THREAD_ENV)
    src = os.path.join(checkout, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def probe_setup(env, checkout):
    """Seconds from starting a process until ``import ellipreg.cli`` returns."""
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, WORKER, "--probe"], env=env,
                         cwd=checkout, capture_output=True, text=True,
                         timeout=30, check=True)
    return float(out.stdout.strip().splitlines()[-1]) - t0


def prepare_jobs(work, jobs):
    for job in jobs:
        job_dir = os.path.join(work, job["id"])
        os.makedirs(job_dir)
        job["config_path"] = os.path.join(job_dir, "config.ini")
        job["out_dir"] = os.path.join(job_dir, "out")
        with open(job["config_path"], "w") as fh:
            fh.write(job["config"])


def end_to_end(result, setup_samples, statuses):
    jobs = result["jobs"].values()
    attempted = len(statuses)
    failed = statuses.count(workloads.FAILED)
    right = statuses.count(workloads.RIGHT)
    completed = attempted - failed
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": sum(statistics.median(job["times"]) for job in jobs),
        "peak_rss_mb": result["peak_rss_mb"],
        "completed_frac": completed / attempted,
        "right_verdict_frac": right / completed if completed else 0.0,
        # reported on the summary lines only: both are 0 when all is well
        "failed_frac": failed / attempted,  # of job runs
        # jobs, not runs: a job's answer is the same in every pass
        "wrong_verdicts": sum(workloads.WRONG in job["statuses"] for job in jobs),
    }


def layer_metrics(tp):
    """Per-layer metrics of one traced pass; every time is a self time."""
    self_s, calls, counts = tp["self_s"], tp["calls"], tp["counts"]
    s = lambda name: self_s.get(name, 0.0)
    cg = sum(it for _, it, _ in tp["solves"])
    attributed = sum(v for k, v in self_s.items() if k != "bench.job")
    m = {
        "cli.load_config.s": s("cli.load_config"),
        "cli.build_field.s": s("cli.build_field"),
        "cli.write_report.s": s("cli.write_report"),
        "cli.write_csv.s": s("cli.write_csv"),
        "cli.runner.self_s": s("cli.runner"),
        "cli.report_wall_time_s": counts.get("cli.report_wall_time_s", 0.0),
        "coeff.eval_points": counts.get("coeff.eval_points", 0),
        "coeff.eval_batch.s": s("coeff.eval_batch"),
        "sphmean.mean_matrix_R.calls": calls.get("sphmean.mean_matrix_R", 0),
        "sphmean.mean_matrix_R.s": s("sphmean.mean_matrix_R"),
        "criteria.square_dini_integral.s": s("criteria.square_dini_integral"),
        "criteria.build_radial_profile.s": s("criteria.build_radial_profile"),
        "criteria.build_radial_profile.peak_mb":
            tp["peak_mb"].get("criteria.build_radial_profile", 0.0),
        "criteria.conditions.s": s("criteria.conditions"),
        "criteria.classify.self_s": s("criteria.classify"),
        "dyadic.evidence_from_partials.calls":
            calls.get("dyadic.evidence_from_partials", 0),
        "dyadic.evidence_from_partials.s": s("dyadic.evidence_from_partials"),
        "dynsys.integrate_system.calls": calls.get("dynsys.integrate_system", 0),
        "dynsys.integrate_system.s": s("dynsys.integrate_system"),
        "dynsys.rhs_calls": counts.get("dynsys.rhs_calls", 0),
        "dynsys.fundamental_matrix.s": s("dynsys.fundamental_matrix"),
        "dynsys.stability_constant.s": s("dynsys.stability_constant"),
        "dynsys.asymptotic_limit.s": s("dynsys.asymptotic_limit"),
        "gilbarg_serrin.build_cesari_counterexample.s":
            s("gilbarg_serrin.build_cesari_counterexample"),
        "gilbarg_serrin.verify_independence.self_s":
            s("gilbarg_serrin.verify_independence"),
        "pde_verify.assemble.s": s("pde_verify.assemble"),
        "pde_verify.solve.s": s("pde_verify.solve"),
        "pde_verify.cg_iterations": cg,
        "pde_verify.s_per_iteration": s("pde_verify.solve") / cg if cg else 0.0,
        "pde_verify.rel_residual": max((r for _, _, r in tp["solves"]), default=0.0),
        "pde_verify.solve.peak_mb": tp["peak_mb"].get("pde_verify.solve", 0.0),
        "pde_verify.circles.s": s("pde_verify.circles"),
        "bench.unattributed_s": s("bench.job"),
        "bench.coverage_frac": attributed / tp["traced_s"],
        "bench.trace_overhead_frac": tp["traced_s"] / tp["untraced_s"] - 1.0,
    }
    return m


COUNT_METRICS = ("coeff.eval_points", "sphmean.mean_matrix_R.calls",
                 "dyadic.evidence_from_partials.calls",
                 "dynsys.integrate_system.calls", "dynsys.rhs_calls",
                 "pde_verify.cg_iterations")


def per_layer(result):
    passes = [layer_metrics(tp) for tp in result["traced"]]
    for name in COUNT_METRICS:
        if len({p[name] for p in passes}) > 1:
            print(f"# warning: {name} differs between traced passes: "
                  f"{[p[name] for p in passes]}")
    return {name: statistics.median([p[name] for p in passes]) for name in passes[0]}


def report_trace(result, metrics):
    tp = result["traced"][0]
    for jid, n in sorted(tp["ode_solves"].items()):
        print(f"# job {jid}: {n} ODE solves")
    for n, it, res in tp["solves"]:
        print(f"# CG solve n={n}: {it} iterations, relative residual {res:.3e}")
    cov = metrics["bench.coverage_frac"]
    verdict = "PASS" if cov >= COVERAGE_MIN else "FAIL"
    print(f"# coverage check {verdict}: layer self times cover {cov:.3f} of the "
          f"traced job time (need {COVERAGE_MIN}); unattributed "
          f"{metrics['bench.unattributed_s']:.4f} s in cli.main outside the "
          f"wrapped layers; trace overhead "
          f"{metrics['bench.trace_overhead_frac']:.3f}")
    for target in tp["missing"]:
        print(f"# coverage gap: {target} is gone; its time counts as its caller's")


def main(argv=None):
    args = parse_args(argv)
    checkout = os.getcwd()
    if not os.path.isfile(os.path.join(checkout, "src", "ellipreg", "cli.py")):
        print("perfbench: run from the root of an ellipreg checkout "
              "(src/ellipreg/cli.py not found)", file=sys.stderr)
        return 2
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    reference = workloads.load_json(os.path.join(HERE, "verify_reference.json"))
    jobs = workloads.jobs_for(args.workload, args.seed, reference)

    started = time.monotonic()
    work_root = os.path.join(checkout, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(dir=work_root)
    try:
        prepare_jobs(work, jobs)
        env = child_env(checkout)
        setup_samples = [probe_setup(env, checkout) for _ in range(SETUP_PROBES)]
        plan = {"checkout": checkout, "jobs": jobs, "seconds": args.seconds,
                "trace": bool(args.trace),
                "result_path": os.path.join(work, "result.json")}
        plan_path = os.path.join(work, "plan.json")
        with open(plan_path, "w") as fh:
            json.dump(plan, fh)
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, plan_path], env=env, cwd=checkout,
                stdout=sys.stderr,
                timeout=max(10.0, RUN_DEADLINE_S - (t0 - started)))
        except subprocess.TimeoutExpired:
            print("perfbench: workload process timed out", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"perfbench: workload process exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        result = workloads.load_json(plan["result_path"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(work_root):
            os.rmdir(work_root)
    setup_samples.append(result["imported_at"] - t0)

    statuses = [s for job in result["jobs"].values() for s in job["statuses"]]
    failed = statuses.count(workloads.FAILED)
    unknown_wrong = sorted(jid for jid, job in result["jobs"].items()
                           if workloads.WRONG in job["statuses"]
                           and jid not in workloads.KNOWN_WRONG)
    e2e = end_to_end(result, setup_samples, statuses)

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# environment " + json.dumps(result["environment"], sort_keys=True))
    for jid, job in sorted(result["jobs"].items()):
        line = (f"# job {jid}: {len(job['statuses'])} runs, "
                f"{','.join(sorted(set(job['statuses'])))}, {job['summary']}, "
                f"median {statistics.median(job['times']):.4f} s")
        if "reason" in job:
            line += f" ({job['reason']})"
        print(line)
    known = sum(jid in workloads.KNOWN_WRONG for jid in result["jobs"])
    print(f"# failed_frac {e2e['failed_frac']:.4f} of {len(statuses)} runs; "
          f"wrong_verdicts {e2e['wrong_verdicts']} of {len(result['jobs'])} jobs "
          f"({known} are known seed defects); unexpected wrong: "
          f"{', '.join(unknown_wrong) or 'none'}")

    if args.trace:
        values = per_layer(result)
        report_trace(result, values)
    else:
        values = e2e
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"# {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and not unknown_wrong,
                      "attempted": len(statuses), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
