"""Per-layer spans recorded from outside the program.

The recorder replaces public functions of the ``ellipreg`` modules by timing
wrappers for the length of one traced pass and puts the originals back
afterwards.  A function is replaced under every name a loaded ``ellipreg``
module binds it to, so ``from .sphmean import mean_matrix_R`` call sites are
traced too.  A span's self time is its duration minus the durations of the
spans it encloses, so self times of all spans add up to the traced time.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

# (module, attribute, span name).  Several functions may share a span name;
# their self times and calls are summed.
SPANS = (
    ("cli", "load_config", "cli.load_config"),
    ("cli", "build_field", "cli.build_field"),
    ("cli", "write_report", "cli.write_report"),
    ("cli", "write_csv", "cli.write_csv"),
    ("cli", "run_classify", "cli.runner"),
    ("cli", "run_gs", "cli.runner"),
    ("cli", "run_verify", "cli.runner"),
    ("sphmean", "mean_matrix_R", "sphmean.mean_matrix_R"),
    ("criteria", "classify", "criteria.classify"),
    ("criteria", "square_dini_integral", "criteria.square_dini_integral"),
    ("criteria", "build_radial_profile", "criteria.build_radial_profile"),
    ("criteria", "check_condition_11", "criteria.conditions"),
    ("criteria", "pv_integral_R", "criteria.conditions"),
    ("criteria", "l1_condition_12b", "criteria.conditions"),
    ("criteria", "divergence_condition_15", "criteria.conditions"),
    ("criteria", "iterated_condition_13", "criteria.conditions"),
    ("dyadic", "evidence_from_partials", "dyadic.evidence_from_partials"),
    ("dynsys", "integrate_system", "dynsys.integrate_system"),
    ("dynsys", "fundamental_matrix", "dynsys.fundamental_matrix"),
    ("dynsys", "stability_constant", "dynsys.stability_constant"),
    ("dynsys", "asymptotic_limit", "dynsys.asymptotic_limit"),
    ("gilbarg_serrin", "build_cesari_counterexample",
     "gilbarg_serrin.build_cesari_counterexample"),
    ("gilbarg_serrin", "verify_independence", "gilbarg_serrin.verify_independence"),
    ("pde_verify", "assemble", "pde_verify.assemble"),
    ("pde_verify", "solve_dirichlet", "pde_verify.solve"),
    ("pde_verify", "spectral_decompose", "pde_verify.circles"),
    ("pde_verify", "lipschitz_quotient", "pde_verify.circles"),
    ("pde_verify", "gradient_at_origin", "pde_verify.circles"),
)

# spans whose tracemalloc peak is recorded (tracing runs only inside them)
PEAK_SPANS = ("criteria.build_radial_profile", "pde_verify.solve")

ROOT = "bench.job"
MB = 2.0 ** 20


class Recorder:
    """Self times, call counts, counters and memory peaks of one traced pass."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.peak_mb = defaultdict(float)
        self.solves = []            # (n, iterations, relative residual)
        self._stack = []            # child time accumulated per open span

    def run(self, name, fn, *args, **kwargs):
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            d = time.perf_counter() - t0
            self._stack.pop()
            self.self_s[name] += d - frame[0]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][0] += d

    def wrap(self, name, fn):
        if name in PEAK_SPANS:
            return lambda *a, **k: self._run_with_peak(name, fn, a, k)
        if name == "dynsys.integrate_system":
            return lambda Rfun, *a, **k: self.run(name, fn, self._count_rhs(Rfun),
                                                  *a, **k)
        if name == "cli.build_field":
            return lambda *a, **k: self._counting_field(self.run(name, fn, *a, **k))
        return lambda *a, **k: self.run(name, fn, *a, **k)

    def _run_with_peak(self, name, fn, args, kwargs):
        tracemalloc.start()
        try:
            out = self.run(name, fn, *args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] / MB
        finally:
            tracemalloc.stop()
        self.peak_mb[name] = max(self.peak_mb[name], peak)
        if name == "pde_verify.solve":
            self.solves.append((out.N, out.iterations, out.residual_norm))
        return out

    def _count_rhs(self, Rfun):
        def counted(t):
            self.counts["dynsys.rhs_calls"] += 1
            return Rfun(t)
        return counted

    def _counting_field(self, field):
        inner = field.eval_batch

        def eval_batch(pts):
            self.counts["coeff.eval_points"] += len(pts)
            return self.run("coeff.eval_batch", inner, pts)

        return dataclasses.replace(field, eval_batch=eval_batch)


class Patch:
    """Install a recorder's wrappers in the ``ellipreg`` modules; undo on exit.

    ``missing`` lists the targets the program no longer defines; their time
    lands in the enclosing span's self time.
    """

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.missing = []
        self._undo = []

    def __enter__(self):
        targets = []
        for modname, attr, span in SPANS:
            try:
                module = importlib.import_module(f"ellipreg.{modname}")
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if callable(original):
                targets.append((original, self.recorder.wrap(span, original)))
            else:
                self.missing.append(f"ellipreg.{modname}.{attr}")
        mods = [m for name, m in list(sys.modules.items())
                if name == "ellipreg" or name.startswith("ellipreg.")]
        for original, wrapped in targets:
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is original:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, original))
        return self

    def __exit__(self, *exc):
        for m, key, original in reversed(self._undo):
            setattr(m, key, original)
        self._undo.clear()
        return False
