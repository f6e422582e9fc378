"""In-memory spans around arspec's public functions, for the traced run.

``Tracer.install`` rebinds every module-level name in the arspec modules that
refers to a traced function, so the calls the package makes internally
(threshold calling ``jacobi_eigenvalues``, ``solve_spectrum`` calling
``branch_positive``) pass through the wrapper as well as the benchmark's own.
``uninstall`` restores the original bindings.  Nothing under ``src/`` knows
about tracing.

A span is ``[id, parent, name, layer, start, end, extra]`` with
``time.perf_counter`` stamps; on Linux that clock is CLOCK_MONOTONIC, so
spans recorded in child processes line up with the parent's.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

# Modules whose globals may bind a traced function (arspec.cli reaches them
# through module attributes, so the rebinding below covers it too).
SITES = ("arspec", "arspec.solver", "arspec.oracle", "arspec.threshold", "arspec.graphs")

SPANNED = {
    "solver": ("solve_spectrum", "last_bracket_ratio", "closure_witness",
               "innermost_eigenvalues", "sine_ratio_even", "sine_ratio_odd"),
    "oracle": ("jacobi_eigenvalues", "quotient_eigenvalues", "char_poly_eval"),
    "threshold": ("threshold_spectrum", "omega_scan", "extremal_scan",
                  "quotient_matrix"),
    "graphs": ("adjacency_from_sequence", "antiregular_adjacency", "laplacian"),
}

# Evaluated at every sample point of the bracket solver: counted, not
# spanned, because a span per call would cost more than the call.
COUNTED = ("branch_positive", "branch_negative", "odd_ratio_positive",
           "odd_ratio_negative")

SINGLE_BRACKET = ("last_bracket_ratio", "closure_witness", "innermost_eigenvalues")


def _extra(name, out):
    if name == "jacobi_eigenvalues":
        return {"n": out.order, "sweeps": out.sweeps}
    if name == "solve_spectrum":
        return {"roots": len(out.positives) + len(out.negatives),
                "residual": max(out.residuals_pos + out.residuals_neg, default=0.0)}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        wrappers = {}
        for layer, names in SPANNED.items():
            module = importlib.import_module("arspec." + layer)
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._spanned(fn, name, layer))
        solver = importlib.import_module("arspec.solver")
        for name in COUNTED:
            fn = getattr(solver, name)
            wrappers[id(fn)] = (fn, self._counted(fn, name))
        for site in SITES:
            module = importlib.import_module(site)
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def open(self, name: str, layer: str) -> list:
        """Start a span for a benchmark operation; pass it to close()."""
        rec = [len(self.spans), self._stack[-1] if self._stack else None,
               name, layer, time.perf_counter(), 0.0, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def close(self, rec: list) -> None:
        rec[5] = time.perf_counter()
        self._stack.pop()

    def adopt(self, spans: list[list], counts: dict, parent: int | None) -> None:
        """Append spans recorded in another process under span ``parent``."""
        base = len(self.spans)
        for sid, par, *rest in spans:
            self.spans.append([sid + base, parent if par is None else par + base, *rest])
        self.counts.update(counts)

    def _spanned(self, fn, name, layer):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, name, layer, clock(), 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
                rec[6] = _extra(name, out)
                return out
            finally:
                rec[5] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = defaultdict(float)
    for sid, parent, _, _, start, end, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - covered[sid] for sid, _, _, _, start, end, _ in spans]


def layer_metrics(spans: list[list], counts: dict) -> dict:
    """Per-layer self times and exact counts from one traced phase."""
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    layer_self = defaultdict(float)
    name_self = defaultdict(float)
    for span, t in zip(spans, own):
        layer_self[span[3]] += t
        name_self[span[2]] += t

    def under(span, names) -> bool:
        while span[1] is not None:
            span = by_id[span[1]]
            if span[2] in names:
                return True
        return False

    scans = ("omega_scan", "extremal_scan")
    scan_wall = sum(s[5] - s[4] for s in spans if s[2] in scans and not under(s, scans))
    oracle_in_scans = sum(t for s, t in zip(spans, own)
                          if s[3] == "oracle" and under(s, scans))
    threshold_in_scans = sum(t for s, t in zip(spans, own)
                             if s[3] == "threshold" and (s[2] in scans or under(s, scans)))

    jac = [(s, t) for s, t in zip(spans, own) if s[2] == "jacobi_eigenvalues" and s[6]]
    small = [t for s, t in jac if s[6]["n"] <= 16]
    large = [t for s, t in jac if s[6]["n"] > 16]
    sweeps = sum(s[6]["sweeps"] for s, _ in jac)
    solves = [s for s in spans if s[2] == "solve_spectrum" and s[6]]
    roots = sum(s[6]["roots"] for s in solves)
    fn_evals = sum(counts.get(name, 0) for name in COUNTED)
    spec = [s[5] - s[4] for s in spans if s[2] == "threshold_spectrum"]

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "solver.solve_s": name_self["solve_spectrum"],
        "solver.single_bracket_s": sum(name_self[n] for n in SINGLE_BRACKET),
        "solver.fn_evals": fn_evals,
        "solver.roots": roots,
        "solver.fn_evals_per_root": ratio(fn_evals, roots),
        "solver.max_residual": max((s[6]["residual"] for s in solves), default=0.0),
        "oracle.jacobi_s": name_self["jacobi_eigenvalues"],
        "oracle.jacobi_calls": len(jac),
        "oracle.sweeps": sweeps,
        "oracle.sweeps_per_call": ratio(sweeps, len(jac)),
        "oracle.jacobi_calls_small": len(small),
        "oracle.jacobi_ms_per_call_small": ratio(1e3 * sum(small), len(small)),
        "oracle.jacobi_calls_large": len(large),
        "oracle.jacobi_ms_per_call_large": ratio(1e3 * sum(large), len(large)),
        "oracle.quotient_s": name_self["quotient_eigenvalues"],
        "threshold.self_s": layer_self["threshold"],
        "threshold.scan_s": threshold_in_scans,
        "threshold.scan_wall_s": scan_wall,
        "threshold.jacobi_share": ratio(oracle_in_scans, scan_wall),
        "threshold.spectrum_calls": len(spec),
        "threshold.spectrum_us_per_call": ratio(1e6 * sum(spec), len(spec)),
        "graphs.adjacency_s": layer_self["graphs"],
        "graphs.adjacency_calls": sum(1 for s in spans if s[2] == "adjacency_from_sequence"),
        "cli.self_s": layer_self["cli"],
    }
