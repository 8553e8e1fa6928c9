"""Workload definitions and the correctness oracle of the ellipreg benchmark.

A job is one ``ellipreg <subcommand> <config>`` run.  Each job carries the
INI text the program sees and the answer its report must give.  This module
imports nothing from the program or from numpy, so the orchestrating
process stays light; the oracle reads the JSON reports the program writes.
"""

from __future__ import annotations

import json
import random

import jsonschema

ZERO_GRADIENT = "differentiable-zero-gradient"
DIFFERENTIABLE = "differentiable-at-origin"
INCONCLUSIVE = "inconclusive"

# Rank-one fields A = I + g(r) theta theta^T with omega = |g| and the class
# the paper's criteria assign them analytically.
LAB_FIELDS = (
    ("minus-inv-log", "-1/log(e^2/r)", "1/log(e^2/r)", ZERO_GRADIENT),
    ("plus-inv-log", "+1/log(e^2/r)", "1/log(e^2/r)", INCONCLUSIVE),
    ("inv-log-sq", "1/log(e/r)^2", "1/log(e/r)^2", DIFFERENTIABLE),
    ("minus-half-inv-log-sq", "-0.5/log(e/r)^2", "0.5/log(e/r)^2",
     DIFFERENTIABLE),
    ("sqrt-r", "r^0.5", "r^0.5", DIFFERENTIABLE),
    ("minus-half-sqrt-r", "-0.5*r^0.5", "0.5*r^0.5", DIFFERENTIABLE),
)

# Verdict triple of the plateau counterexamples: trajectories settle,
# window constants keep growing, the square integral converges.
GS_TRIPLE = ("evidence-yes", "evidence-unstable", "converges")

# Jobs whose verdict is wrong at the seed: at k_max = 40 the dyadic
# classifier flips (ROADMAP item 3).  They are counted in wrong_verdicts and
# right_verdict_frac; any wrong verdict outside this set fails the run.
KNOWN_WRONG = frozenset({
    "classify-2d-minus-inv-log-k40",
    "classify-2d-inv-log-sq-k40",
    "classify-2d-minus-half-inv-log-sq-k40",
    "classify-3d-minus-inv-log-k40",
})

WORKLOADS = ("lab-2d", "classify-3d", "verify-2d")

# Verify runs are gated on the relative residual the solver reports.
VERIFY_TOL = 1e-12
RESIDUAL_GATE = 10 * VERIFY_TOL


def _classify_job(dim, tag, g, omega, k_max, expect):
    config = (f"[run]\ndim = {dim}\n\n"
              f"[field]\nfamily = gilbarg-serrin\ng = {g}\nomega = {omega}\n\n"
              f"[budget]\neps = 0.5\nk_max = {k_max}\ntol = 1e-6\n")
    return {"id": f"classify-{dim}d-{tag}-k{k_max}", "subcommand": "classify",
            "config": config, "expect": {"classification": expect}}


def _gs_job(example):
    config = (f"[run]\ndim = 2\n\n"
              f"[gs]\nexample = {example}\nhorizon = 1e4\n")
    return {"id": f"gs-{example}", "subcommand": "gs", "config": config,
            "expect": {"triple": list(GS_TRIPLE)}}


def _verify_job(n, reference):
    # the shipped configs/gs_minus_log.ini field, at grid size n
    config = ("[run]\ndim = 2\n\n"
              "[field]\nfamily = gilbarg-serrin\ng = -1/log(e^2/r)\n"
              "omega = 1/log(e^2/r)\n\n"
              "[budget]\neps = 0.5\nk_max = 30\ntol = 1e-6\n\n"
              f"[pde]\nn = {n}\nboundary = x1\n"
              "radii = 0.5, 0.25, 0.125, 0.0625, 0.03125\n"
              f"tol = {VERIFY_TOL:g}\n")
    return {"id": f"verify-n{n}", "subcommand": "verify", "config": config,
            "expect": {"reference": reference[str(n)], "n": n}}


def jobs_for(workload: str, seed: int, reference: dict) -> list:
    """The workload's jobs, in an order shuffled by ``seed``."""
    if workload == "lab-2d":
        jobs = [_classify_job(2, tag, g, omega, k, expect)
                for tag, g, omega, expect in LAB_FIELDS
                for k in (20, 30, 40)]
        jobs += [_gs_job("cesari-convergent"), _gs_job("cesari-minus-infinity")]
    elif workload == "classify-3d":
        tag, g, omega, expect = LAB_FIELDS[0]
        jobs = [_classify_job(3, tag, g, omega, k, expect) for k in (30, 40)]
    elif workload == "verify-2d":
        # n = 1024 fails at maxiter with the Jacobi-PCG solver (ROADMAP
        # item 2), so it would only time the failure path.
        jobs = [_verify_job(n, reference) for n in (256, 512)]
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    random.Random(seed).shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

FAILED = "failed"
WRONG = "wrong"
RIGHT = "right"


def check_report(job: dict, report: dict, schema: dict):
    """Judge one report: (status, verdict summary, reason).

    ``failed``: the report does not validate or breaks the residual gate;
    ``wrong``: it is valid but its answer differs from the known one.
    """
    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as e:
        return FAILED, None, f"report does not validate: {e.message}"
    payload = report["payload"]
    expect = job["expect"]
    if "classification" in expect:
        got = payload.get("classification")
        if got != expect["classification"]:
            return WRONG, got, f"expected {expect['classification']}"
        return RIGHT, got, ""
    if "triple" in expect:
        got = [payload.get("asym_constant", {}).get("verdict"),
               payload.get("uniformly_stable", {}).get("verdict"),
               payload.get("square_integrable")]
        if got != expect["triple"]:
            return WRONG, got, f"expected {expect['triple']}"
        return RIGHT, got, ""
    residual = payload.get("residual_norm")
    if not isinstance(residual, (int, float)) or not residual <= RESIDUAL_GATE:
        return FAILED, None, f"residual {residual} above {RESIDUAL_GATE:g}"
    # The discrete operator's condition number grows like n^2, so a relative
    # residual of tol leaves solution errors of up to about tol * n^2.
    atol = VERIFY_TOL * expect["n"] ** 2
    ref = expect["reference"]
    got = {key: payload.get(key) for key in ref}
    for key, want in ref.items():
        have = got[key]
        want_l = want if isinstance(want, list) else [want]
        have_l = have if isinstance(have, list) else [have]
        if (len(have_l) != len(want_l)
                or any(not isinstance(h, (int, float)) or not abs(h - w) <= atol
                       for h, w in zip(have_l, want_l))):
            return WRONG, got, f"{key} = {have}, reference {want} (atol {atol:g})"
    return RIGHT, payload.get("iterations"), ""


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)
