"""Command line interface.

Verbs:
  spectrum     eigenvalues of one anti-regular graph (solver, oracle, or both)
  table1       last-bracket position ratios against the published reference
  verify       batch of spectral checks with one PASS/FAIL line each
  scan         exhaustive threshold-graph scans (forbidden interval, extremes)
  figure-data  CSV curve samples for external plotting
  density      shorthand for figure-data --which density

Exit codes: 0 success, 2 a mathematical check failed, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import checks, graphs, oracle, solver, threshold
from .solver import _MAX_K, _MAX_ORDER, _checked_int

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_USAGE = 64

DENSE_MAX_ORDER = 2000
BOTH_TOL = 1e-8
TABLE1_TOL = 1e-6

# last-bracket ratios, keyed by graph order n (k = n/2)
TABLE1_REFERENCE = {
    250: 0.5020031290,
    500: 0.5010007838,
    1000: 0.5005001962,
    2000: 0.5002500492,
    4000: 0.5001250123,
    8000: 0.5000625018,
    16000: 0.5000312567,
    32000: 0.5000156204,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _write_out(path: str, mode: str, text: str) -> None:
    # open, write and close in one guard: some targets (/dev/full) open
    # fine and fail only at the write or the close
    try:
        with open(path, mode, newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError("cannot write --out %s: %s" % (path, exc.strerror or exc))


def _check_out(path: str) -> None:
    """Fail fast when --out cannot be opened for writing, before any work.
    Append mode leaves an existing file as it is, and a file the probe
    creates is removed at once (through a dangling symlink, that is the
    link's target), so a run that fails leaves none."""
    fresh = not os.path.exists(path)
    _write_out(path, "a", "")
    if fresh:
        os.remove(os.path.realpath(path))


def _csv(rows: list[str]) -> str:
    return "\r\n".join(rows) + "\r\n"


def _index_csv(eigenvalues) -> str:
    return _csv(["index,lambda"] + ["%d,%r" % (i, v) for i, v in enumerate(eigenvalues)])


def cmd_spectrum(args) -> tuple[str, str | None]:
    if args.method == "cheb":
        _checked_int("spectrum --n", args.n, 2, _MAX_ORDER)
    else:  # the dense oracle is capped
        _checked_int("spectrum --method %s --n" % args.method, args.n, 2, DENSE_MAX_ORDER)
    result = dense = None
    if args.method in ("cheb", "both"):
        result = solver.solve_spectrum(args.n)
    if args.method in ("dense", "both"):
        a = graphs.antiregular_adjacency(args.n).astype(float)
        dense = oracle.jacobi_eigenvalues(a).eigenvalues

    if args.method == "cheb":
        return (result.to_json() + "\n" if args.format == "json" else result.to_csv()), None
    if args.method == "dense":
        text = json.dumps({"n": args.n, "eigenvalues": dense}) + "\n"
        return (text if args.format == "json" else _index_csv(dense)), None

    cheb = result.eigenvalues()
    deltas = [abs(c - d) for c, d in zip(cheb, dense)]
    max_delta = max(deltas)
    if args.format == "json":
        payload = {
            "n": args.n,
            "cheb": json.loads(result.to_json()),
            "dense": dense,
            "deltas": deltas,
            "max_delta": max_delta,
        }
        text = json.dumps(payload) + "\n"
    else:
        rows = ["index,lambda_cheb,lambda_dense,delta"]
        rows.extend(
            "%d,%r,%r,%r" % (i, c, d, abs(c - d))
            for i, (c, d) in enumerate(zip(cheb, dense))
        )
        text = _csv(rows)
    if max_delta > BOTH_TOL:
        return text, ("spectrum: solver/oracle disagreement %.3e exceeds %.1e"
                      % (max_delta, BOTH_TOL))
    return text, None


def cmd_table1(args) -> tuple[str, str | None]:
    entries = []
    worst = 0.0
    for n in sorted(TABLE1_REFERENCE):
        computed = solver.last_bracket_ratio(n // 2)
        reference = TABLE1_REFERENCE[n]
        delta = computed - reference
        worst = max(worst, abs(delta))
        entries.append((n, computed, reference, delta))
    if args.format == "json":
        payload = {
            "rows": [
                {"n": n, "computed": c, "reference": r, "delta": d}
                for n, c, r, d in entries
            ],
            "max_abs_delta": worst,
        }
        text = json.dumps(payload) + "\n"
    else:
        rows = ["n,computed,reference,delta"]
        rows.extend("%d,%.10f,%.10f,%r" % e for e in entries)
        text = _csv(rows)
    return text, None if worst <= TABLE1_TOL else ""


def cmd_verify(args) -> tuple[str, str | None]:
    _checked_int("verify --n-max", args.n_max, 2, 500)
    spectra = {n: solver.solve_spectrum(n) for n in range(2, args.n_max + 1)}
    # the innermost pair of order 2k is bracket 1 of both branches, solved above
    innermost = {}
    for k in range(1, args.n_max // 2 + 1):
        spec = spectra[2 * k]
        innermost[k] = (spec.positives[0], spec.negatives[0] if k > 1 else None)
    results = [
        checks.oracle_equivalence(spectra, 0.0 if args.tamper else BOTH_TOL),
        checks.forbidden_interval(spectra),
        checks.bracket_containment(spectra),
        checks.pair_symmetry_bound(spectra),
        checks.eigenvalue_estimate_bound(spectra),
        checks.laplacian_integer_spectrum(range(2, min(args.n_max, 50) + 1), 1e-6),
        checks.monotone_innermost(innermost),
    ]
    failed = any(r.status == checks.FAIL for r in results)
    return "".join(r.line() + "\n" for r in results), "" if failed else None


def cmd_scan(args) -> tuple[str, str | None]:
    _checked_int("scan --n", args.n, 2, threshold.MAX_SCAN_ORDER)
    if args.workers is not None:
        _checked_int("scan --workers", args.workers, 1)
    report = threshold.omega_scan(args.n, workers=args.workers)
    text = report.to_json() + "\n" if args.format == "json" else report.violations_to_csv()
    failures = []
    if args.check in ("omega", "both") and report.omega_violations:
        failures.append("scan: %d forbidden-interval violations at n=%d"
                        % (len(report.omega_violations), args.n))
    if args.check in ("extremal", "both") and not report.extremes_attained():
        failures.append("scan: extremes not attained by the anti-regular graph")
    return text, "\n".join(failures) or None


def _figure_theta(points: int) -> str:
    rows = ["lambda,theta"]
    left = points // 2
    right = points - left
    for i in range(left):
        lam = -10.0 + (solver.FORBIDDEN_LO + 10.0) * i / (left - 1)
        rows.append("%r,%r" % (lam, solver.theta_of_lambda(lam)))
    rows.append("")  # gap over the forbidden interval
    for i in range(right):
        lam = solver.FORBIDDEN_HI + (10.0 - solver.FORBIDDEN_HI) * i / (right - 1)
        rows.append("%r,%r" % (lam, solver.theta_of_lambda(lam)))
    return _csv(rows)


def _figure_curves(k: int, points: int, parity: str) -> str:
    even = parity == "even"
    ratio = solver.sine_ratio_even if even else solver.sine_ratio_odd
    upper = solver.branch_positive if even else solver.odd_ratio_positive
    lower = solver.branch_negative if even else solver.odd_ratio_negative
    curves = "branch_positive,branch_negative" if even else "ratio_positive,ratio_negative"
    rows = ["theta,sine_ratio," + curves]
    span = points if even else points - 1  # even: stop short of pi, where the branches blow up
    n = 2 * k if even else 2 * k + 1
    blanks = 0  # one blank row per pole passed, at most one per sample
    for i in range(points):
        theta = math.pi if i == span else math.pi * i / span  # pi * span / span can miss pi
        if blanks < k - 1 and theta > solver.bracket_poles(n, blanks + 1)[1]:
            rows.append("")
            blanks += 1
        rows.append("%r,%r,%r,%r" % (theta, ratio(theta, k), upper(theta), lower(theta)))
    return _csv(rows)


def cmd_figure_data(args) -> tuple[str, str | None]:
    # theta reads only --points and density only --k
    if args.which != "theta":
        _checked_int("%s --k" % args.verb, args.k, 2, _MAX_K)
    if args.which != "density":
        _checked_int("figure-data --points", args.points, 10)
    if args.which == "theta":
        return _figure_theta(args.points), None
    if args.which in ("even-curves", "odd-curves"):
        return _figure_curves(args.k, args.points, args.which.split("-")[0]), None
    return _index_csv(solver.solve_spectrum(2 * args.k).eigenvalues()), None  # density


def build_parser() -> _Parser:
    parser = _Parser(prog="arspec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues of one anti-regular graph")
    p.add_argument("--n", type=int, required=True, help="number of vertices (>= 2)")
    p.add_argument("--method", choices=("cheb", "dense", "both"), default="cheb")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("table1", help="last-bracket ratios vs reference values")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("verify", help="run spectral checks, one PASS/FAIL line each")
    p.add_argument(
        "--n-max",
        type=int,
        default=50,
        help="largest order checked, 2..500 (the oracle pass is cubic per order;"
        " 200 took about 40 s and 500 about 26 minutes on 2 cores)",
    )
    p.add_argument(
        "--tamper",
        action="store_true",
        help="negative control: force an impossible oracle tolerance so the"
        " equivalence check must fail",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="exhaustive connected-threshold-graph scan")
    p.add_argument("--n", type=int, required=True,
                   help="graph order, 2..%d" % threshold.MAX_SCAN_ORDER)
    p.add_argument("--check", choices=("omega", "extremal", "both"), default="both")
    p.add_argument("--workers", type=int, default=None,
                   help="accepted and validated (>= 1); the scan is one"
                   " vectorised pass either way")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("figure-data", help="CSV curve samples for plotting")
    p.add_argument(
        "--which",
        choices=("theta", "even-curves", "odd-curves", "density"),
        required=True,
    )
    p.add_argument("--k", type=int, default=8,
                   help="half-order parameter (>= 2), for the curves and density")
    p.add_argument("--points", type=int, default=512,
                   help="sample count (>= 10), for theta and the curves")
    p.set_defaults(func=cmd_figure_data)

    p = sub.add_parser("density", help="shorthand for figure-data --which density")
    p.add_argument("--k", type=int, default=8, help="half-order parameter (>= 2)")
    p.set_defaults(func=cmd_figure_data, which="density")

    for p in sub.choices.values():
        p.add_argument("--out", help="write output to this file instead of stdout")
    return parser


def main(argv=None) -> int:
    """Parse, open --out, run the verb, write its text, then report: a verb
    returns (text, failure), failure None when its checks passed and
    otherwise the stderr message ("" when the text already shows it)."""
    try:
        args = build_parser().parse_args(argv)
        if args.out is not None:
            _check_out(args.out)
        text, failure = args.func(args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            _write_out(args.out, "w", text)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    if failure:
        print(failure, file=sys.stderr)
    return EXIT_OK if failure is None else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
