"""Batch front door: config-driven runs emitting JSON reports and CSV tables.

One INI config describes one run; the subcommand picks the pipeline stage:

    moments    radial moment tables of a field (CSV)
    integrate  trajectory of the log-time system (CSV)
    classify   full analytic classification (JSON report, optional CSVs)
    appendix   reduction matrices and the second-order defect curve (CSV)
    gs         named scalar examples and counterexample constructions
    verify     2-D Dirichlet solve with circle decomposition and quotients
    report     classify + verify in one document

Outputs are deterministic given the config (reports are key-sorted JSON;
the only volatile values live in one isolated provenance block).  Exit
codes: 0 success, 1 numerical failure, 2 config error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field as dc_field
from datetime import datetime, timezone
from importlib import resources
from typing import Optional

import numpy as np

from . import __version__, appendix_system, coeff, criteria, dynsys
from . import gilbarg_serrin as gs
from . import sphmean

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2

_FIELD_T1_MAX = 700.0    # [integrate] t1 with generator = field: e^-t > 0

SUBCOMMANDS = ("moments", "integrate", "classify", "appendix", "gs", "verify",
               "report")


class ConfigError(ValueError):
    """Invalid run configuration; message names the section and field."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    subcommand: str
    raw_text: str
    dim: int = 2
    field_spec: dict = dc_field(default_factory=dict)
    budget: criteria.Budget = dc_field(default_factory=criteria.Budget)
    options: dict = dc_field(default_factory=dict)
    output_dir: str = "."
    gs_example: Optional[tuple] = None   # (generator, horizon) of a gs run

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.raw_text.encode()).hexdigest()[:16]


def _floats(text: str) -> list:
    return [float(v) for v in text.split(",")]


def _option(values, section: str, key: str, default, cast=float):
    """``values[key]`` cast by ``cast``, ``default`` when absent; every option
    cast goes through here, so a malformed value names its section and key."""
    text = values.get(key)
    if text is None:
        return default
    try:
        return cast(text)
    except ValueError as e:
        raise ConfigError(f"[{section}] {key}: {e}") from None


def load_config(path: str, subcommand: str) -> RunConfig:
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            text = fh.read()
        parser.read_string(text)
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e}") from None
    except configparser.Error as e:
        raise ConfigError(f"config parse error: {e}") from None

    cfg = RunConfig(subcommand=subcommand, raw_text=text)
    if parser.has_section("run"):
        cfg.dim = _option(parser["run"], "run", "dim", 2, int)
        if cfg.dim not in (2, 3):
            raise ConfigError("[run] dim: must be 2 or 3")
    if parser.has_section("field"):
        cfg.field_spec = dict(parser["field"])
    if parser.has_section("budget"):
        sec = parser["budget"]
        kwargs = {key: _option(sec, "budget", key, None, cast)
                  for key, cast in (("eps", float), ("k_max", int), ("tol", float),
                                    ("grid_resolution", int),
                                    ("nodes_per_octave", int), ("dyn_tol", float),
                                    ("dyn_t0", float), ("asi_tol", float))
                  if sec.get(key) is not None}
        cfg.budget = criteria.Budget(**kwargs)
        try:
            cfg.budget.validate()
        except ValueError as e:
            raise ConfigError(f"[budget] {e}") from None
    for name in ("integrate", "gs", "pde", "moments"):
        if parser.has_section(name):
            cfg.options[name] = dict(parser[name])
    if parser.has_section("output"):
        cfg.output_dir = parser["output"].get("dir", ".")
    cfg.output_dir = os.environ.get("ELLIPREG_OUTDIR", cfg.output_dir)

    for section, key in (("pde", "tol"), ("integrate", "tol"), ("gs", "tol")):
        value = _option(cfg.options.get(section, {}), section, key, 1.0)
        if not 0 < value < math.inf:
            raise ConfigError(f"[{section}] {key}: must be finite and positive")
    # asymptotic_limit needs a trajectory spanning at least 10 time units
    if not 10 <= _option(cfg.options.get("gs", {}), "gs", "horizon", 10.0) <= 1e6:
        raise ConfigError("[gs] horizon: must lie in [10, 1e6]")
    # the field is sampled at r = e^-t, which must lie in the unit ball and
    # stay above the underflow of e^-t (745): past it R reads 0
    integrate = cfg.options.get("integrate", {})
    if not _option(integrate, "integrate", "t0", 0.0) >= 0:
        raise ConfigError("[integrate] t0: must be at least 0")
    if (integrate.get("generator", "field") == "field"
            and _option(integrate, "integrate", "t1", 30.0) > _FIELD_T1_MAX):
        raise ConfigError(f"[integrate] t1: must be at most {_FIELD_T1_MAX:g} "
                          "with generator = field")
    if _option(cfg.options.get("moments", {}), "moments", "k_max", 1, int) < 1:
        raise ConfigError("[moments] k_max: must be at least 1")
    if subcommand == "gs":
        cfg.gs_example = _gs_example(cfg.options.get("gs", {}))
    return cfg


def build_field(cfg: RunConfig) -> coeff.CoefficientField:
    spec = cfg.field_spec
    family = spec.get("family", "identity").strip().lower()
    n = cfg.dim
    if family in ("identity", ""):
        return coeff.make_constant(n, np.eye(n))
    if family == "constant":
        diag = spec.get("diag")
        if diag is None:
            raise ConfigError("[field] constant family needs diag = a, b[, c]")
        vals = _option(spec, "field", "diag", None, _floats)
        if len(vals) != n:
            raise ConfigError(f"[field] diag: expected {n} entries")
        return coeff.make_constant(n, np.diag(vals))
    if family in ("gilbarg-serrin", "gs"):
        g_expr = spec.get("g")
        if not g_expr:
            raise ConfigError("[field] gilbarg-serrin family needs g = <expr>")
        try:
            g = coeff.parse_radial_expr(g_expr)
            omega_expr = spec.get("omega")
            omega_piecewise = spec.get("omega_piecewise")
            if omega_piecewise:
                vals = _option(spec, "field", "omega_piecewise", None, _floats)
                omega = coeff.piecewise_log_modulus(vals)
            elif omega_expr:
                omega = coeff.parse_modulus_expr(omega_expr)
            else:
                # default envelope: |g| must be a valid modulus on its own
                omega = coeff.parse_modulus_expr(g_expr.lstrip("+-"))
            return coeff.make_gilbarg_serrin(n, g, omega)
        except coeff.FieldError as e:
            raise ConfigError(f"[field] {e}") from None
    if family == "radial":
        a_expr = spec.get("scale", "r^1")
        try:
            sc = coeff.parse_radial_expr(a_expr)
        except coeff.FieldError as e:
            raise ConfigError(f"[field] scale: {e}") from None
        a0 = lambda r: (1.0 + float(sc(np.asarray([r]))[0])) * np.eye(n)
        omega_expr = spec.get("omega", a_expr.lstrip("+-"))
        return coeff.make_perturbed_radial(
            n, a0, None, modulus=coeff.parse_modulus_expr(omega_expr))
    raise ConfigError(f"[field] unknown family {family!r}")


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v + 0.0 if v == 0 else v   # normalize -0.0
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if obj is None or isinstance(obj, (str, bool)):
        return obj
    return str(obj)


def write_report(cfg: RunConfig, payload: dict, wall_time: float,
                 name: str = "report.json") -> str:
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "subcommand": cfg.subcommand,
        "config_hash": cfg.config_hash,
        "payload": _jsonable(payload),
        "provenance_volatile": {
            "timestamp_utc": datetime.now(timezone.utc).isoformat(),
            "wall_time_s": round(wall_time, 3),
        },
    }
    problems = validate_report(report)
    if problems:
        raise RuntimeError("report failed schema validation: " + "; ".join(problems))
    os.makedirs(cfg.output_dir, exist_ok=True)
    path = os.path.join(cfg.output_dir, name)
    with open(path, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def write_csv(cfg: RunConfig, name: str, header, rows) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    path = os.path.join(cfg.output_dir, name)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                         else v for v in row])
    return path


def load_schema() -> dict:
    with resources.files("ellipreg").joinpath("report_schema.json").open() as fh:
        return json.load(fh)


def validate_report(report: dict, schema: Optional[dict] = None):
    """Structural validation against the shipped schema (subset of JSON Schema)."""
    if schema is None:
        schema = load_schema()
    problems = []

    def check(node, spec, path):
        typ = spec.get("type")
        if typ == "object":
            if not isinstance(node, dict):
                problems.append(f"{path}: expected object")
                return
            for key in spec.get("required", []):
                if key not in node:
                    problems.append(f"{path}: missing required key {key!r}")
            for key, sub in spec.get("properties", {}).items():
                if key in node:
                    check(node[key], sub, f"{path}.{key}")
        elif typ == "string" and not isinstance(node, str):
            problems.append(f"{path}: expected string")
        elif typ == "number" and not isinstance(node, (int, float)):
            problems.append(f"{path}: expected number")

    check(report, schema, "$")
    return problems


# ---------------------------------------------------------------------------
# evidence serialization
# ---------------------------------------------------------------------------

def _evidence_dict(ev) -> dict:
    from .dyadic import IntegralEvidence
    if isinstance(ev, IntegralEvidence):
        return {
            "kind": "integral",
            "verdict": ev.verdict,
            "rate_tag": ev.rate_tag,
            "limit": _jsonable(ev.limit) if ev.limit is not None else None,
            "residual": ev.residual,
            "k_values": _jsonable(ev.k_values),
            "partial_values": _jsonable(ev.partial_values),
        }
    if isinstance(ev, criteria.WindowBoundReport):
        return {
            "kind": "window-bound",
            "bounded": ev.bounded,
            "K_hat": ev.K_hat,
            "k_values": _jsonable(ev.k_values),
            "sup_values": _jsonable(ev.sup_values),
        }
    if isinstance(ev, dynsys.StabilityReport):
        return {
            "kind": "stability",
            "verdict": ev.verdict_uniform_stability,
            "K_hat": ev.K_hat,
            "K_trend": _jsonable(ev.K_trend),
            "window_ends": _jsonable(ev.window_ends),
            "growth_rate": ev.growth_rate,
            "diagnostics": ev.diagnostics,
        }
    if isinstance(ev, dynsys.AsymptoticReport):
        return {
            "kind": "asymptotic",
            "verdict": ev.verdict,
            "limit": _jsonable(ev.limit) if ev.limit is not None else None,
            "residual": ev.residual,
        }
    if isinstance(ev, criteria.IteratedReport):
        return {
            "kind": "iterated",
            "level1_ordered": _evidence_dict(ev.level1_ordered),
            "level1_l1": _evidence_dict(ev.level1_l1),
            "level2_ordered": (_evidence_dict(ev.level2_ordered)
                               if ev.level2_ordered is not None else None),
            "level2_l1": (_evidence_dict(ev.level2_l1)
                          if ev.level2_l1 is not None else None),
        }
    return {"kind": "opaque", "repr": repr(ev)}


def _verdict_payload(verdict: criteria.RegularityVerdict) -> dict:
    return {
        "classification": verdict.classification,
        "route": verdict.route,
        "dim": verdict.dim,
        "sound": criteria.soundness_check(verdict),
        "evidence": {k: _evidence_dict(v) for k, v in verdict.evidence.items()},
    }


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------

def run_moments(cfg: RunConfig) -> dict:
    field = build_field(cfg)
    opts = cfg.options.get("moments", {})
    k_max = _option(opts, "moments", "k_max", cfg.budget.k_max, int)
    radii = cfg.budget.eps * 2.0 ** -np.arange(0, k_max)
    grid = cfg.budget.sphere_grid(field.dim)
    rows = []
    for r in radii:
        md = sphmean.appendix_moments(field, float(r), grid)
        rows.append([md.r, md.alpha, *md.beta, *md.gamma,
                     *md.R.ravel(), *md.S.ravel(), md.mu])
    n = field.dim
    header = (["r", "alpha"] + [f"beta_{i+1}" for i in range(n)]
              + [f"gamma_{i+1}" for i in range(n)]
              + [f"R_{i+1}{j+1}" for i in range(n) for j in range(n)]
              + [f"S_{i+1}{j+1}" for i in range(n) for j in range(n)]
              + ["mu"])
    path = write_csv(cfg, "moments.csv", header, rows)
    return {"csv": os.path.basename(path), "rows": len(rows)}


def run_integrate(cfg: RunConfig) -> dict:
    opts = cfg.options.get("integrate", {})
    t0 = _option(opts, "integrate", "t0", 0.0)
    t1 = _option(opts, "integrate", "t1", 30.0)
    tol = _option(opts, "integrate", "tol", 1e-9)
    if not t1 > t0:
        raise ConfigError("[integrate] t1: must exceed t0")
    source = opts.get("generator", "field")
    n = cfg.dim
    if source == "field":
        field = build_field(cfg)
        grid = cfg.budget.sphere_grid(n)
        sample = lambda t: sphmean.mean_matrix_R_many(field, np.exp(-t), grid)
        # 1024 intervals: the 513 output rows are flow nodes, where the
        # Richardson estimate holds
        flow = dynsys.refined_flow(sample, np.linspace(t0, t1, 1025), tol,
                                   strict=True)
        step = (len(flow.t) - 1) // 512
        track = dynsys.FundamentalMatrixTrack(flow.t[::step], flow.y[::step])
    elif source in gs.WHITELIST:
        gen = gs.WHITELIST[source]
        grid_t = np.linspace(t0, t1, 513)
        phi = gs.closed_form_phi(gen, n, grid_t) / gs.closed_form_phi(gen, n, t0)
        track = dynsys.FundamentalMatrixTrack(grid_t, phi[:, None, None])
    else:
        raise ConfigError(f"[integrate] unknown generator {source!r}")
    rep = dynsys.stability_constant(track)
    if rep.K_running is None:
        raise np.linalg.LinAlgError(rep.diagnostics)
    norms = np.linalg.norm(track.Phi.reshape(len(track.Phi), -1), axis=1)
    ys = track.Phi[:, :, 0]     # the trajectory through e_1
    rows = [[t, *y, nrm, k]
            for t, y, nrm, k in zip(track.t_grid, ys, norms, rep.K_running)]
    header = ["t"] + [f"phi_{i+1}" for i in range(ys.shape[1])] + ["Phi_norm", "K_running"]
    path = write_csv(cfg, "trajectory.csv", header, rows)
    return {"csv": os.path.basename(path), "K_hat": rep.K_hat,
            "verdict": rep.verdict_uniform_stability}


def run_classify(cfg: RunConfig, emit_csv: bool = False) -> dict:
    field = build_field(cfg)
    verdict = criteria.classify(field, cfg.budget)
    payload = _verdict_payload(verdict)
    if emit_csv:
        for key, ev in verdict.evidence.items():
            d = _evidence_dict(ev)
            if d.get("kind") == "integral":
                vals = np.asarray(d["partial_values"], float)
                flat = vals.reshape(len(vals), -1)
                header = ["k"] + [f"v{j}" for j in range(flat.shape[1])]
                write_csv(cfg, f"condition_{key}.csv", header,
                          [[k, *row] for k, row in zip(d["k_values"], flat)])
    return payload


def run_appendix(cfg: RunConfig) -> dict:
    field = build_field(cfg)
    sys_ = appendix_system.build_reduced_system(
        field, cfg.budget.sphere_grid(field.dim))
    ts = np.linspace(cfg.budget.dyn_t0,
                     -math.log(cfg.budget.eps) + cfg.budget.k_max * math.log(2.0),
                     41)
    rows = []
    for t in ts:
        md = sys_.moments_at(float(t))
        S1 = appendix_system.s1_matrix(md)
        res = appendix_system.r1_block_residual(md)
        rows.append([t, md.r, float(np.linalg.norm(S1, 2)), res.residual,
                     res.quadrature_residual])
    path = write_csv(cfg, "reduction.csv",
                     ["t", "r", "S1_norm", "r1_defect", "quad_residual"], rows)
    return {
        "csv": os.path.basename(path),
        "M_inf": _jsonable(sys_.M_inf),
        "J": _jsonable(sys_.J),
        "M_inf_eigenvalues": _jsonable(np.sort(np.linalg.eigvals(sys_.M_inf).real)),
    }


_CESARI = {"cesari-convergent": gs.KIND_CONVERGENT_IMPROPER,
           "cesari-minus-infinity": gs.KIND_MINUS_INFINITY}


def _gs_example(opts: dict):
    """The ``[gs]`` example's generator and horizon.

    Built while loading: a Cesari schedule that the decay exponent or the
    horizon cannot carry is a config error naming that key.
    """
    example = opts.get("example", "exp-decay")
    horizon = _option(opts, "gs", "horizon", 1e4 if example in _CESARI else 100.0)
    decay = _option(opts, "gs", "decay_exponent", 2.0 / 3.0)
    if example in gs.WHITELIST:
        return gs.WHITELIST[example], horizon
    if example not in _CESARI:
        raise ConfigError(f"[gs] unknown example {example!r}")
    if not 0.5 < decay < 1:
        raise ConfigError("[gs] decay_exponent: must lie in (1/2, 1)")
    try:
        gen = gs.build_cesari_counterexample(_CESARI[example], decay_exponent=decay,
                                             horizon=horizon)
    except ValueError as e:
        raise ConfigError(f"[gs] horizon: {e}") from None
    return gen, horizon


def run_gs(cfg: RunConfig) -> dict:
    opts = cfg.options.get("gs", {})
    example = opts.get("example", "exp-decay")
    gen, horizon = cfg.gs_example
    tol = _option(opts, "gs", "tol", 1e-4)
    n = cfg.dim
    rep = gs.verify_independence(gen, n, tol=tol, horizon=horizon)
    ts = np.linspace(0, horizon, 2049)
    gv = gen.gtil(ts)
    cum = gen.cumulative(ts)
    phi = gs.closed_form_phi(gen, n, ts)
    write_csv(cfg, "generator.csv", ["t", "g", "running_integral", "phi"],
              list(zip(ts, gv, cum, phi)))
    payload = {
        "example": example,
        "asym_constant": _evidence_dict(rep.asym_constant),
        "uniformly_stable": _evidence_dict(rep.uniformly_stable),
        "square_integrable": rep.square_integrable_verdict,
        "running_integral_final": rep.running_integral_final,
        "window_sup": rep.window_sup,
    }
    blocks = getattr(gen, "blocks", None)
    if blocks is not None:
        payload["block_integrals"] = _jsonable(blocks.block_integrals)
        payload["boundary_values"] = _jsonable(blocks.boundary_values)
    return payload


_BOUNDARY_FUNS = {
    "x1": lambda p: p[:, 0],
    "x2": lambda p: p[:, 1],
    "harmonic-quadratic": lambda p: p[:, 0] ** 2 - p[:, 1] ** 2,
    "sin-x1": lambda p: np.sin(p[:, 0]),
    "one": lambda p: np.ones(len(p)),
}


def run_verify(cfg: RunConfig) -> dict:
    if cfg.dim != 2:
        raise ConfigError("[run] dim: the grid verifier is two-dimensional")
    opts = cfg.options.get("pde", {})
    N = _option(opts, "pde", "n", 256, int)
    if not (64 <= N <= 1024):
        raise ConfigError("[pde] n: must lie in [64, 1024]")
    bname = opts.get("boundary", "x1")
    if bname not in _BOUNDARY_FUNS:
        raise ConfigError(f"[pde] boundary: unknown name {bname!r}; "
                          f"choose from {sorted(_BOUNDARY_FUNS)}")
    radii = _option(opts, "pde", "radii", [0.5, 0.25, 0.125, 0.0625, 0.03125],
                    _floats)
    tol = _option(opts, "pde", "tol", 1e-12)
    field = build_field(cfg)
    from . import pde_verify     # sparse solvers; no other run loads them
    sol = pde_verify.solve_dirichlet(field, _BOUNDARY_FUNS[bname], N, tol=tol)
    dec = pde_verify.spectral_decompose(sol, radii)
    quo = pde_verify.lipschitz_quotient(sol, radii)
    gra = pde_verify.gradient_at_origin(dec)
    write_csv(cfg, "circle_tables.csv",
              ["r", "u0", "v1", "v2", "Q", "w_mean", "w_moment"],
              [[r, u0, v[0], v[1], q, wm, wmo]
               for r, u0, v, q, wm, wmo in zip(dec.radii, dec.u0, dec.v, quo.Q,
                                               dec.w_means, dec.w_moments)])
    return {
        "N": N,
        "boundary": bname,
        "residual_norm": sol.residual_norm,
        "iterations": sol.iterations,
        "u_origin": quo.u_origin,
        "Q": _jsonable(quo.Q),
        "bounded_evidence": quo.bounded_evidence,
        "gradient_limit": _jsonable(gra.limit),
        "gradient_converged_evidence": gra.converged_evidence,
        "w_orthogonality_max": float(max(dec.w_means.max(), dec.w_moments.max())),
    }


def run_report(cfg: RunConfig) -> dict:
    payload = {"classification": run_classify(cfg)}
    if cfg.dim == 2 and "pde" in cfg.options:
        payload["pde"] = run_verify(cfg)
    return payload


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _numerical_errors() -> tuple:
    """Exceptions that end a run with exit 1.

    ``pde_verify`` loads only inside ``run_verify``, so its SolveError can
    only have been raised once the module is in ``sys.modules``.
    """
    errors = (coeff.FieldError, dynsys.IntegrationError, ValueError,
              np.linalg.LinAlgError)
    pde_verify = sys.modules.get(f"{__package__}.pde_verify")
    return errors if pde_verify is None else errors + (pde_verify.SolveError,)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ellipreg",
        description="Regularity diagnostics for divergence-form elliptic operators")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("config", help="INI run configuration")
    parser.add_argument("--emit-csv", action="store_true",
                        help="also write per-condition partial-value tables")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.subcommand)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    t_start = time.perf_counter()
    runners = {
        "moments": run_moments,
        "integrate": run_integrate,
        "classify": lambda c: run_classify(c, emit_csv=args.emit_csv),
        "appendix": run_appendix,
        "gs": run_gs,
        "verify": run_verify,
        "report": run_report,
    }
    try:
        payload = runners[args.subcommand](cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except _numerical_errors() as e:
        partial = {"error": str(e), "error_type": type(e).__name__}
        try:
            write_report(cfg, partial, time.perf_counter() - t_start,
                         name="report_partial.json")
        except Exception:
            pass
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL

    path = write_report(cfg, payload, time.perf_counter() - t_start)
    print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
