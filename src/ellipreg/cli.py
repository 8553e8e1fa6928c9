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
the only volatile values live in one isolated provenance block).
``write_report`` converts each report once, writing a value that is not
finite as null (strict JSON); CSVs are written from float tables.  Exit
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
from dataclasses import dataclass, field as dc_field, fields, is_dataclass
from datetime import datetime, timezone
from importlib import resources
from typing import Optional

import numpy as np

from . import __version__, coeff, criteria, dynsys, sphmean
from .dyadic import IntegralEvidence

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2

SUBCOMMANDS = ("moments", "integrate", "classify", "appendix", "gs", "verify",
               "report")


class ConfigError(ValueError):
    """Invalid run configuration; message names the section and field."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_GS_FIELD_KEYS = ("g", "omega", "omega_piecewise")
# the [field] keys each family reads beside ``family``
_FIELD_KEYS = {"identity": (), "": (), "constant": ("diag",),
               "gilbarg-serrin": _GS_FIELD_KEYS, "gs": _GS_FIELD_KEYS,
               "radial": ("scale", "omega")}
# the names of gilbarg_serrin.WHITELIST, which loads only for the runs that
# read a generator (gs, and integrate with a named one)
_GS_EXAMPLES = ("zero", "exp-decay", "neg-exp-decay", "one-over-1pt",
                "neg-one-over-1pt", "one-over-1pt-sq")
_CESARI = ("cesari-convergent", "cesari-minus-infinity")
_BOUNDARY_FUNS = {
    "x1": lambda p: p[:, 0],
    "x2": lambda p: p[:, 1],
    "harmonic-quadratic": lambda p: p[:, 0] ** 2 - p[:, 1] ** 2,
    "sin-x1": lambda p: np.sin(p[:, 0]),
    "one": lambda p: np.ones(len(p)),
}


def _floats(text: str) -> list:
    return [float(v) for v in text.split(",")]


_POSITIVE = (lambda v: 0 < v < math.inf, "must be finite and positive")
# a solve tolerance no double-precision solve can meet would spend the whole
# effort budget before failing: CG to its iteration cap, the flow to its
# finest lattice
_AT_FLOOR = (lambda v: criteria.TOL_FLOOR <= v < math.inf,
             f"must be finite and at least the floor {criteria.TOL_FLOOR:g}, "
             "where double precision still resolves it")

# Every config key but a [field] family's own keys, one row each: (section,
# key, cast, default, accepted, message).  ``load_config`` casts a given value
# and refuses it with "[section] key: message" where ``accepted`` is false;
# an absent key takes the default.  The [budget] rows take Budget's defaults
# and leave their ranges to Budget.validate, which ``criteria.classify`` runs
# too; a None default elsewhere is filled in from another key while loading.
_OPTIONS = (
    ("run", "dim", int, 2, lambda v: v in (2, 3), "must be 2 or 3"),
    ("field", "family", str.lower, "identity", lambda v: v in _FIELD_KEYS,
     "must be one of " + ", ".join(filter(None, _FIELD_KEYS))),
    ("budget", "eps", float, criteria.Budget.eps, None, None),
    ("budget", "k_max", int, criteria.Budget.k_max, None, None),
    ("budget", "tol", float, criteria.Budget.tol, None, None),
    ("budget", "grid_resolution", int, criteria.Budget.grid_resolution,
     None, None),
    ("budget", "nodes_per_octave", int, criteria.Budget.nodes_per_octave,
     None, None),
    ("budget", "dyn_tol", float, criteria.Budget.dyn_tol, None, None),
    ("budget", "dyn_t0", float, criteria.Budget.dyn_t0, None, None),
    ("budget", "asi_tol", float, criteria.Budget.asi_tol, None, None),
    ("integrate", "generator", str, "field",
     lambda v: v == "field" or v in _GS_EXAMPLES,
     "must be field or one of " + ", ".join(_GS_EXAMPLES)),
    # the field is sampled at r = e^-t, which must lie in the unit ball
    ("integrate", "t0", float, 0.0, lambda v: 0 <= v < math.inf,
     "must be finite and at least 0"),
    ("integrate", "t1", float, 30.0, math.isfinite, "must be finite"),
    ("integrate", "tol", float, 1e-9, *_AT_FLOOR),
    ("gs", "example", str, "exp-decay",
     lambda v: v in _GS_EXAMPLES or v in _CESARI,
     "must be one of " + ", ".join(_GS_EXAMPLES + _CESARI)),
    # asymptotic_limit needs a trajectory spanning at least 10 time units
    ("gs", "horizon", float, None, lambda v: 10 <= v <= 1e6,
     "must lie in [10, 1e6]"),
    ("gs", "decay_exponent", float, 2.0 / 3.0, lambda v: 0.5 < v < 1,
     "must lie in (1/2, 1)"),
    ("gs", "tol", float, 1e-4, *_POSITIVE),
    ("pde", "n", int, 256, lambda v: 64 <= v <= 1024, "must lie in [64, 1024]"),
    ("pde", "boundary", str, "x1", lambda v: v in _BOUNDARY_FUNS,
     "must be one of " + ", ".join(_BOUNDARY_FUNS)),
    # a repeated circle would count as several in the plateau tests
    ("pde", "radii", _floats, [0.5, 0.25, 0.125, 0.0625, 0.03125],
     lambda v: len(set(v)) == len(v), "each circle must be given once"),
    ("pde", "tol", float, 1e-12, *_AT_FLOOR),
    ("moments", "k_max", int, None, lambda v: 1 <= v <= criteria.K_MAX_CAP,
     f"must lie in [1, {criteria.K_MAX_CAP}]"),
    ("output", "dir", str, ".", None, None),
)


@dataclass
class RunConfig:
    subcommand: str
    raw_text: str
    dim: int
    options: dict          # section -> key -> typed value, one per _OPTIONS row
    sections: tuple        # the sections the config gives
    field_spec: dict       # [field] as written: its keys depend on the family
    budget: criteria.Budget
    output_dir: str
    gs_generator: object   # [gs] example's, built for gs only; else None
    # what the run records for the report's provenance_volatile block
    volatile: dict = dc_field(default_factory=dict)

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.raw_text.encode()).hexdigest()[:16]


def _read_options(parser: configparser.ConfigParser) -> dict:
    """Every _OPTIONS row, cast and range-checked, by section and key; then
    the first section or key that no row reads is refused, so a misspelling
    is named instead of silently leaving its default in place."""
    if parser.defaults():
        raise ConfigError(f"[{parser.default_section}]: no run reads this "
                          "section; set each key in its own section")
    opts = {}
    for section, key, cast, default, accepted, message in _OPTIONS:
        text = parser.get(section, key, fallback=None)
        value = default
        if text is not None:
            try:
                value = cast(text)
            except ValueError as e:
                raise ConfigError(f"[{section}] {key}: {e}") from None
            if accepted is not None and not accepted(value):
                raise ConfigError(f"[{section}] {key}: {message}")
        opts.setdefault(section, {})[key] = value
    for name in parser.sections():
        if name not in opts:
            raise ConfigError(f"[{name}]: unknown section; expected one of "
                              + ", ".join(f"[{k}]" for k in opts))
        known = tuple(opts[name])
        if name == "field":
            known += _FIELD_KEYS[opts["field"]["family"]]
        for key in parser[name]:
            if key not in known:
                raise ConfigError(f"[{name}] {key}: unknown key; expected one "
                                  f"of {', '.join(known)}")
    return opts


def load_config(path: str, subcommand: str) -> RunConfig:
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    # no interpolation: a value is read as written, '%' included
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            text = fh.read()
        parser.read_string(text)
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e}") from None
    except configparser.Error as e:
        raise ConfigError(f"config parse error: {e}") from None
    opts = _read_options(parser)

    # the rules that tie one key to another
    dim = opts["run"]["dim"]
    if subcommand == "verify" and dim != 2:
        raise ConfigError("[run] dim: the grid verifier is two-dimensional")
    try:
        budget = criteria.Budget(**opts["budget"])
        budget.validate()
    except ValueError as e:
        raise ConfigError(f"[budget] {e}") from None
    # a sphere sweep holds at least one whole sphere of field samples
    res, top = budget.grid_resolution, sphmean.max_resolution(dim)
    if res is not None and res > top:
        raise ConfigError(f"[budget] grid_resolution: must be at most {top} "
                          f"in {dim}-D, so one sphere of field samples "
                          "fits a sweep chunk")
    if opts["moments"]["k_max"] is None:
        opts["moments"]["k_max"] = budget.k_max
    integrate = opts["integrate"]
    if not integrate["t1"] > integrate["t0"]:
        raise ConfigError("[integrate] t1: must exceed t0")
    if integrate["generator"] == "field" and integrate["t1"] > criteria.T_MAX:
        raise ConfigError(f"[integrate] t1: must be at most {criteria.T_MAX:g} "
                          "with generator = field")
    # the grid verifier's circles stay two cells inside the grid: [2h, 1 - 2h]
    n = opts["pde"]["n"]
    if not all(4 / n <= r <= 1 - 4 / n for r in opts["pde"]["radii"]):
        raise ConfigError(f"[pde] radii: each must lie in [2h, 1 - 2h] = "
                          f"[{4 / n:g}, {1 - 4 / n:g}] at n = {n}")
    gs_opts = opts["gs"]
    example = gs_opts["example"]
    cesari = example in _CESARI
    if gs_opts["horizon"] is None:
        gs_opts["horizon"] = 1e4 if cesari else 100.0
    if not cesari and parser.has_option("gs", "decay_exponent"):
        raise ConfigError("[gs] decay_exponent: only the Cesari examples "
                          f"read it, not {example!r}")
    generator = None
    if subcommand == "gs":
        # loaded here, not at the top, like every module one subcommand reads
        from . import gilbarg_serrin as gs
        generator = gs.WHITELIST.get(example)
        if cesari:
            kind = (gs.KIND_CONVERGENT_IMPROPER
                    if example == "cesari-convergent" else gs.KIND_MINUS_INFINITY)
            # a Cesari schedule that the horizon cannot carry is a config error
            try:
                generator = gs.build_cesari_counterexample(
                    kind, decay_exponent=gs_opts["decay_exponent"],
                    horizon=gs_opts["horizon"])
            except ValueError as e:
                raise ConfigError(f"[gs] horizon: {e}") from None
    return RunConfig(
        subcommand=subcommand, raw_text=text, dim=dim, options=opts,
        sections=tuple(parser.sections()),
        field_spec=dict(parser["field"]) if parser.has_section("field") else {},
        budget=budget,
        output_dir=os.environ.get("ELLIPREG_OUTDIR", opts["output"]["dir"]),
        gs_generator=generator)


def _field_floats(spec: dict, key: str) -> list:
    try:
        return _floats(spec[key])
    except ValueError as e:
        raise ConfigError(f"[field] {key}: {e}") from None


def _field_expr(key: str, text: str, parse):
    """``parse(text)`` for the [field] key ``key``, its error naming it."""
    try:
        return parse(text)
    except coeff.FieldError as e:
        raise ConfigError(f"[field] {key}: {e}") from None


def build_field(cfg: RunConfig) -> coeff.CoefficientField:
    spec, n = cfg.field_spec, cfg.dim
    family = cfg.options["field"]["family"]
    # the key a constructor's refusal names; the rank-one family's
    # messages name g or its envelope themselves
    key = {"constant": "diag: ", "radial": "scale: "}.get(family, "")
    try:
        if family in ("identity", ""):
            return coeff.make_constant(n, np.eye(n))
        if family == "constant":
            if spec.get("diag") is None:
                raise ConfigError("[field] constant family needs diag = a, b[, c]")
            vals = _field_floats(spec, "diag")
            if len(vals) != n:
                raise ConfigError(f"[field] diag: expected {n} entries")
            return coeff.make_constant(n, np.diag(vals))
        if family in ("gilbarg-serrin", "gs"):
            g_expr = spec.get("g")
            if not g_expr:
                raise ConfigError("[field] gilbarg-serrin family needs g = <expr>")
            g = _field_expr("g", g_expr, coeff.parse_radial_expr)
            if spec.get("omega_piecewise"):
                if spec.get("omega"):
                    raise ConfigError("[field] omega: not read beside "
                                      "omega_piecewise; set one of the two")
                omega = coeff.piecewise_log_modulus(
                    _field_floats(spec, "omega_piecewise"))
            else:
                # default envelope: |g| must be a valid modulus on its own
                omega = _field_expr("omega", spec.get("omega") or g_expr.lstrip("+-"),
                                    coeff.parse_modulus_expr)
            return coeff.make_gilbarg_serrin(n, g, omega)
        # the radial family, (1 + scale(r)) I: scale read per array of radii
        scale = spec.get("scale", "r^1")
        sc = _field_expr("scale", scale, coeff.parse_radial_expr)
        omega = _field_expr("omega", spec.get("omega", scale.lstrip("+-")),
                            coeff.parse_modulus_expr)
        return coeff.make_perturbed_radial(
            n, lambda radii: (1.0 + sc(radii))[:, None, None] * np.eye(n),
            modulus=omega)
    except coeff.FieldError as e:
        raise ConfigError(f"[field] {key}{e}") from None


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _jsonable(obj):
    """``obj`` as JSON values: -0.0 as 0.0, and a float that is not finite
    as None, since strict JSON has no NaN or infinity."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj) + 0.0              # normalize -0.0
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f":
            a = obj + 0.0                 # normalize -0.0
            finite = np.isfinite(a)
            return (a if finite.all() else np.where(finite, a, None)).tolist()
        if obj.dtype.kind in "biu":
            return obj.tolist()
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
    report = _jsonable({
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "subcommand": cfg.subcommand,
        "config_hash": cfg.config_hash,
        "payload": payload,
        "provenance_volatile": {
            **cfg.volatile,
            "timestamp_utc": datetime.now(timezone.utc).isoformat(),
            "wall_time_s": round(wall_time, 3),
        },
    })
    problems = validate_report(report)
    if problems:
        raise RuntimeError("report failed schema validation: " + "; ".join(problems))
    os.makedirs(cfg.output_dir, exist_ok=True)
    path = os.path.join(cfg.output_dir, name)
    # compact: json.dumps without indent runs the C encoder
    with open(path, "w") as fh:
        fh.write(json.dumps(report, sort_keys=True, allow_nan=False) + "\n")
    return path


def write_csv(cfg: RunConfig, name: str, header, table) -> str:
    """``header``, then each row of the 2-D float ``table`` (a list of rows
    or stacked columns); csv writes each float as its repr."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    path = os.path.join(cfg.output_dir, name)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in np.asarray(table, float):
            wr.writerow(row.tolist())
    return path


_SCHEMA: Optional[dict] = None    # the shipped schema, once it is parsed


def load_schema() -> dict:
    """The shipped report schema, read and parsed once per process; callers
    share the one dict and must not change it."""
    global _SCHEMA
    if _SCHEMA is None:
        path = resources.files("ellipreg").joinpath("report_schema.json")
        with path.open() as fh:
            _SCHEMA = json.load(fh)
    return _SCHEMA


_SCALAR_TYPES = {"string": str, "number": (int, float), "integer": int}


def validate_report(report: dict, schema: Optional[dict] = None):
    """Structural validation against the shipped schema (subset of JSON Schema:
    object, array with items, string, number and integer; a bool is neither
    a number nor an integer)."""
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
        elif typ == "array":
            if not isinstance(node, list):
                problems.append(f"{path}: expected array")
                return
            for i, item in enumerate(node):
                check(item, spec.get("items", {}), f"{path}[{i}]")
        elif typ in _SCALAR_TYPES and (isinstance(node, bool) or
                                       not isinstance(node, _SCALAR_TYPES[typ])):
            problems.append(f"{path}: expected {typ}")

    check(report, schema, "$")
    return problems


# ---------------------------------------------------------------------------
# evidence serialization
# ---------------------------------------------------------------------------

def _evidence_dict(ev) -> dict:
    """An evidence record as its payload: ``kind`` plus every field the
    record shows, a nested record serialized the same way."""
    out = {"kind": ev.kind}
    for f in fields(ev):
        if f.repr:
            v = getattr(ev, f.name)
            out[f.name] = _evidence_dict(v) if is_dataclass(v) else v
    return out


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

def _moments_record(sampler: sphmean.SphereSampler, radii: int) -> dict:
    """The volatile sphere_quadrature block of a run that reads ``radii``
    whole spheres through ``sphmean.appendix_moments``."""
    return {"resolution": sampler.resolution,
            "field_evaluations": radii * len(sampler.grid.weights)}


def run_moments(cfg: RunConfig) -> dict:
    field = build_field(cfg)
    k_max = cfg.options["moments"]["k_max"]
    radii = cfg.budget.eps * 2.0 ** -np.arange(0, k_max)
    sampler = sphmean.sphere_sampler(field.dim, cfg.budget.grid_resolution)
    cfg.volatile["sphere_quadrature"] = _moments_record(sampler, len(radii))
    rows = []
    for r in radii:
        md = sphmean.appendix_moments(field, float(r), sampler.grid)
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
    opts = cfg.options["integrate"]
    t0, t1, tol, source = opts["t0"], opts["t1"], opts["tol"], opts["generator"]
    n = cfg.dim
    if source == "field":
        field = build_field(cfg)
        sampler = sphmean.sphere_sampler(n, cfg.budget.grid_resolution)
        sample = lambda t: sphmean.mean_matrix_R_many(field, np.exp(-t), sampler)
        # 1024 intervals: the 513 output rows are flow nodes, where the
        # Richardson estimate holds
        flow = dynsys.refined_flow(sample, np.linspace(t0, t1, 1025), tol,
                                   strict=True)
        cfg.volatile["sphere_quadrature"] = sampler.record()
        step = (len(flow.t) - 1) // 512
        ts, Phi = flow.t[::step], flow.y[::step]
    else:
        from . import gilbarg_serrin as gs
        gen = gs.WHITELIST[source]
        ts = np.linspace(t0, t1, 513)
        phi = gs.closed_form_phi(gen, n, ts) / gs.closed_form_phi(gen, n, t0)
        Phi = phi[:, None, None]
    rep = dynsys.stability_constant(ts, Phi)
    if rep.K_running is None:
        raise np.linalg.LinAlgError(rep.diagnostics)
    norms = np.linalg.norm(Phi.reshape(len(Phi), -1), axis=1)
    ys = Phi[:, :, 0]     # the trajectory through e_1
    header = ["t"] + [f"phi_{i+1}" for i in range(ys.shape[1])] + ["Phi_norm", "K_running"]
    path = write_csv(cfg, "trajectory.csv", header,
                     np.column_stack([ts, ys, norms, rep.K_running]))
    return {"csv": os.path.basename(path), "K_hat": rep.K_hat,
            "verdict": rep.verdict}


def run_classify(cfg: RunConfig, emit_csv: bool = False) -> dict:
    field = build_field(cfg)
    verdict = criteria.classify(field, cfg.budget)
    cfg.volatile["sphere_quadrature"] = verdict.sampler.record()
    payload = _verdict_payload(verdict)
    if emit_csv:
        for key, ev in verdict.evidence.items():
            if ev.kind == IntegralEvidence.kind:
                flat = ev.partial_values.reshape(len(ev.k_values), -1)
                header = ["k"] + [f"v{j}" for j in range(flat.shape[1])]
                # + 0.0: the table holds the report's values, -0.0 as 0.0
                write_csv(cfg, f"condition_{key}.csv", header,
                          np.column_stack([ev.k_values, flat]) + 0.0)
    return payload


def run_appendix(cfg: RunConfig) -> dict:
    from . import appendix_system
    field = build_field(cfg)
    n = field.dim
    sampler = sphmean.sphere_sampler(n, cfg.budget.grid_resolution)
    M_inf = appendix_system.m_infinity(n)
    ts = np.linspace(cfg.budget.dyn_t0,
                     -math.log(cfg.budget.eps) + cfg.budget.k_max * math.log(2.0),
                     41)
    cfg.volatile["sphere_quadrature"] = _moments_record(sampler, len(ts))
    rows = []
    for t in ts:
        md = sphmean.appendix_moments(field, float(np.exp(-t)), sampler.grid)
        S1 = appendix_system.s1_matrix(md)
        res = appendix_system.r1_block_residual(md)
        rows.append([t, md.r, np.linalg.norm(S1, 2), res.residual,
                     res.quadrature_residual])
    path = write_csv(cfg, "reduction.csv",
                     ["t", "r", "S1_norm", "r1_defect", "quad_residual"], rows)
    return {
        "csv": os.path.basename(path),
        "M_inf": M_inf,
        "J": appendix_system.jordanizer(n),
        "M_inf_eigenvalues": np.sort(np.linalg.eigvals(M_inf).real),
    }


def run_gs(cfg: RunConfig) -> dict:
    from . import gilbarg_serrin as gs
    opts = cfg.options["gs"]
    gen, horizon = cfg.gs_generator, opts["horizon"]
    n = cfg.dim
    rep = gs.verify_independence(gen, n, tol=opts["tol"], horizon=horizon)
    ts = np.linspace(0, horizon, 2049)
    gv = gen.gtil(ts)
    cum = gen.cumulative(ts)
    phi = gs.closed_form_phi(gen, n, ts)
    write_csv(cfg, "generator.csv", ["t", "g", "running_integral", "phi"],
              np.column_stack([ts, gv, cum, phi]))
    payload = {
        "example": opts["example"],
        "asym_constant": _evidence_dict(rep.asym_constant),
        "uniformly_stable": _evidence_dict(rep.uniformly_stable),
        "square_integrable": rep.square_integrable_verdict,
        "running_integral_final": rep.running_integral_final,
        "window_sup": rep.window_sup,
    }
    blocks = getattr(gen, "blocks", None)
    if blocks is not None:
        payload["block_integrals"] = blocks.block_integrals
        payload["boundary_values"] = blocks.boundary_values
    return payload


def run_verify(cfg: RunConfig) -> dict:
    opts = cfg.options["pde"]
    N, bname, radii = opts["n"], opts["boundary"], opts["radii"]
    field = build_field(cfg)
    # loaded here, not at the top: only verify and report solve on the grid,
    # and its import (about 10 ms) would otherwise fall on every run
    from . import pde_verify
    sol = pde_verify.solve_dirichlet(field, _BOUNDARY_FUNS[bname], N,
                                     tol=opts["tol"])
    cfg.volatile["grid_solve"] = {
        "preconditioner": pde_verify.PRECONDITIONER,
        "start_residual": sol.start_residual,
        "iterations": sol.iterations,
        "rel_residual": sol.residual_norm,
        "residual_tail": list(sol.residual_tail),
        "assemble_s": sol.assemble_s,
        "solve_s": sol.solve_s,
    }
    t = time.perf_counter()
    dec = pde_verify.spectral_decompose(sol, radii)
    cfg.volatile["grid_solve"]["circles_s"] = time.perf_counter() - t
    write_csv(cfg, "circle_tables.csv",
              ["r", "u0", "v1", "v2", "Q", "w_mean", "w_moment"],
              np.column_stack([dec.radii, dec.u0, dec.v, dec.Q, dec.w_means,
                               dec.w_moments]))
    return {
        "N": N,
        "boundary": bname,
        "residual_norm": sol.residual_norm,
        "iterations": sol.iterations,
        "u_origin": dec.u_origin,
        "Q": dec.Q,
        "bounded_evidence": dec.bounded_evidence,
        "gradient_limit": dec.limit,
        "gradient_converged_evidence": dec.converged_evidence,
        "w_orthogonality_max": max(dec.w_means.max(), dec.w_moments.max()),
    }


def run_report(cfg: RunConfig) -> dict:
    payload = {"classification": run_classify(cfg)}
    if cfg.dim == 2 and "pde" in cfg.sections:
        payload["pde"] = run_verify(cfg)
    return payload


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# The exceptions that end a run with exit 1: coeff.FieldError,
# np.linalg.LinAlgError and pde_verify.SolveError are ValueErrors.
_NUMERICAL_ERRORS = (ValueError, dynsys.IntegrationError)


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
    except _NUMERICAL_ERRORS as e:
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
