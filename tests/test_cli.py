"""End-to-end command checks through main(argv), pinning exit codes and
output shapes rather than library internals."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from arspec import cli, oracle, solver, threshold
from arspec.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "8")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["n"] == 8
    assert doc["trivial"] == -1.0
    assert len(doc["positives"]) == 4


def test_spectrum_csv_header(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "8", "--format", "csv")
    assert code == EXIT_OK
    assert out.startswith("index,sign_class,theta,lambda,residual,bracket_lo,bracket_hi\r\n")


def test_spectrum_dense_and_both(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "11", "--method", "dense")
    assert code == EXIT_OK
    assert len(json.loads(out)["eigenvalues"]) == 11

    code, out, _ = run(capsys, "spectrum", "--n", "11", "--method", "both")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["max_delta"] < 1e-8
    assert len(doc["deltas"]) == 11


def test_spectrum_both_csv(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "9", "--method", "both", "--format", "csv")
    assert code == EXIT_OK
    rows = out.split("\r\n")
    assert rows[0] == "index,lambda_cheb,lambda_dense,delta"
    assert len(rows) == 11 and rows[-1] == ""  # header, 9 rows, final CRLF
    assert "\n" not in out.replace("\r\n", "")


def test_spectrum_both_flags_a_disagreement(monkeypatch, capsys):
    exact = oracle.jacobi_eigenvalues

    def shifted(a):
        result = exact(a)
        result.eigenvalues[4] += 1e-6
        return result

    monkeypatch.setattr(oracle, "jacobi_eigenvalues", shifted)
    code, _, err = run(capsys, "spectrum", "--n", "9", "--method", "both")
    assert code == EXIT_CHECK_FAILED
    assert err.startswith("spectrum: solver/oracle disagreement ")


def test_spectrum_usage_errors(capsys):
    assert run(capsys, "spectrum", "--n", "1")[0] == EXIT_USAGE
    assert run(capsys, "spectrum", "--n", "2001", "--method", "dense")[0] == EXIT_USAGE
    assert run(capsys, "spectrum")[0] == EXIT_USAGE
    assert run(capsys, "spectrum", "--n", "8", "--method", "magic")[0] == EXIT_USAGE


def test_no_arguments_is_usage_error(capsys):
    assert run(capsys)[0] == EXIT_USAGE


def test_table1_passes(capsys):
    code, out, _ = run(capsys, "table1")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].strip() == "n,computed,reference,delta"
    assert len(lines) == 9
    assert lines[1].startswith("250,")


def test_table1_json(capsys):
    code, out, _ = run(capsys, "table1", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["rows"]) == 8
    assert doc["max_abs_delta"] < 1e-6


def test_verify_small(capsys):
    # the block shown in the README
    code, out, _ = run(capsys, "verify", "--n-max", "12")
    assert code == EXIT_OK
    assert out == (
        "oracle-equivalence: PASS (max delta 1.155e-14 over n=2..12 (tol 1.0e-08))\n"
        "forbidden-interval: PASS (clean for n=2..12)\n"
        "bracket-containment: PASS (angles and eigenvalue bounds hold for n=2..12)\n"
        "pair-symmetry-bound: PASS (15 pair defects within bound)\n"
        "eigenvalue-estimate-bound: PASS (15 estimates within bound)\n"
        "laplacian-integer-spectrum: PASS (integer Laplacian spectra for n=2..12)\n"
        "monotone-innermost: PASS (innermost pair monotone for k=1..6)\n"
    )


def test_verify_degenerate_order_skips(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "2")
    assert code == EXIT_OK
    assert "SKIP" in out


def test_verify_tamper_negative_control(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "4", "--tamper")
    assert code == EXIT_CHECK_FAILED
    assert "oracle-equivalence: FAIL" in out


def test_verify_range_checks(capsys):
    assert run(capsys, "verify", "--n-max", "1")[0] == EXIT_USAGE
    assert run(capsys, "verify", "--n-max", "501")[0] == EXIT_USAGE


def test_scan_json_and_exit(capsys):
    code, out, _ = run(capsys, "scan", "--n", "8")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["omega_violations"] == []
    assert doc["extremes_attained"] is True


@pytest.mark.parametrize("argv, want", [
    # the block shown in the README
    (("scan", "--n", "10", "--format", "json"),
     '{"n": 10, "graphs_scanned": 256, "omega_violations": [],'
     ' "min_positive": {"sequence": "0101010101", "value": 0.22307972755275643},'
     ' "max_nontrivial_negative": {"sequence": "0101010101", "value": -1.2285941252760035},'
     ' "antiregular_min_positive": 0.22307972755275643,'
     ' "antiregular_max_negative": -1.2285941252760035, "extremes_attained": true}\n'),
    # the first order whose dense runs sweep in round-robin order
    (("scan", "--n", "16"),
     '{"n": 16, "graphs_scanned": 16384, "omega_violations": [],'
     ' "min_positive": {"sequence": "0101010101010101", "value": 0.21348065784059245},'
     ' "max_nontrivial_negative": {"sequence": "0101010101010101", "value": -1.2147381428965658},'
     ' "antiregular_min_positive": 0.21348065784059245,'
     ' "antiregular_max_negative": -1.2147381428965658, "extremes_attained": true}\n'),
])
def test_scan_output_is_pinned(capsys, argv, want):
    assert run(capsys, *argv) == (EXIT_OK, want, "")


def test_scan_flags_unattained_extremes(monkeypatch, capsys):
    exact = threshold.omega_scan

    def off(n, workers=None):
        report = exact(n, workers)
        report.antiregular_min_positive += 1e-6
        return report

    monkeypatch.setattr(threshold, "omega_scan", off)
    code, _, err = run(capsys, "scan", "--n", "8")
    assert code == EXIT_CHECK_FAILED
    assert err == "scan: extremes not attained by the anti-regular graph\n"
    assert run(capsys, "scan", "--n", "8", "--check", "omega")[0] == EXIT_OK


def test_scan_csv(capsys):
    code, out, _ = run(capsys, "scan", "--n", "6", "--format", "csv", "--check", "omega")
    assert code == EXIT_OK
    assert out.startswith("sequence,eigenvalue\r\n")


def test_scan_usage(capsys):
    assert run(capsys, "scan", "--n", "31")[0] == EXIT_USAGE
    assert run(capsys, "scan", "--n", "1")[0] == EXIT_USAGE


@pytest.mark.parametrize("value", ["abc", "", "2.5", "0"])
def test_scan_ignores_workers_and_environment(monkeypatch, capsys, value):
    monkeypatch.delenv("ARSPEC_THREADS", raising=False)
    plain = run(capsys, "scan", "--n", "9")
    assert plain[0] == EXIT_OK and plain[1].startswith('{"n": 9, ')
    assert run(capsys, "scan", "--n", "9", "--workers", "2") == plain
    monkeypatch.setenv("ARSPEC_THREADS", value)
    assert run(capsys, "scan", "--n", "9") == plain
    assert run(capsys, "scan", "--n", "9", "--workers", "2") == plain


def test_figure_theta_has_gap(capsys):
    code, out, _ = run(capsys, "figure-data", "--which", "theta", "--points", "20")
    assert code == EXIT_OK
    lines = out.split("\r\n")
    assert lines[0] == "lambda,theta"
    assert "" in lines[1:-1]  # the forbidden interval shows up as a blank row


def test_figure_even_curves_gap_count(capsys):
    code, out, _ = run(
        capsys, "figure-data", "--which", "even-curves", "--k", "4", "--points", "200"
    )
    assert code == EXIT_OK
    lines = out.split("\r\n")
    assert lines[0] == "theta,sine_ratio,branch_positive,branch_negative"
    gaps = sum(1 for ln in lines[1:-1] if ln == "")
    assert gaps == 3  # one per interior pole


def test_figure_odd_curves(capsys):
    code, out, _ = run(
        capsys, "figure-data", "--which", "odd-curves", "--k", "5", "--points", "101"
    )
    assert code == EXIT_OK
    lines = out.split("\r\n")
    assert lines[0] == "theta,sine_ratio,ratio_positive,ratio_negative"
    gaps = sum(1 for ln in lines[1:-1] if ln == "")
    assert gaps == 4
    # pi * span / span rounds above pi at some counts (14, 27, ...) and one ulp
    # below it at others (12, 16, ...); the last sample is pi at every count
    for points in range(10, 301):
        k = 2 + points % 7  # the angles do not depend on k; this cycles k through 2..8
        argv = ("figure-data", "--which", "odd-curves", "--k", str(k), "--points", str(points))
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK, argv
        assert float(out.split("\r\n")[-2].split(",")[0]) == math.pi, argv


def _figure_curves_reference(k, points, parity):
    # the pole-list sampler the O(points) one replaced, kept as its reference
    even = parity == "even"
    ratio = solver.sine_ratio_even if even else solver.sine_ratio_odd
    upper = solver.branch_positive if even else solver.odd_ratio_positive
    lower = solver.branch_negative if even else solver.odd_ratio_negative
    curves = "branch_positive,branch_negative" if even else "ratio_positive,ratio_negative"
    rows = ["theta,sine_ratio," + curves]
    span = points if even else points - 1
    n = 2 * k if even else 2 * k + 1
    poles = [solver.bracket_poles(n, j)[1] for j in range(1, k)]
    next_pole = 0
    for i in range(points):
        theta = math.pi if i == span else math.pi * i / span
        if next_pole < len(poles) and theta > poles[next_pole]:
            rows.append("")
            next_pole += 1
        rows.append("%r,%r,%r,%r" % (theta, ratio(theta, k), upper(theta), lower(theta)))
    return cli._csv(rows)


def test_figure_curves_match_the_pole_list_reference():
    for parity in ("even", "odd"):
        for k in range(2, 41):
            for points in (10, 11, 23, 80, 201):
                want = _figure_curves_reference(k, points, parity)
                assert cli._figure_curves(k, points, parity) == want, (parity, k, points)


def test_figure_curves_cost_follows_points(capsys, monkeypatch):
    calls = []

    def counted(n, j, fn=solver.bracket_poles):
        calls.append(j)
        return fn(n, j)

    monkeypatch.setattr(solver, "bracket_poles", counted)
    for which in ("even-curves", "odd-curves"):
        calls.clear()
        code, out, _ = run(capsys, "figure-data", "--which", which, "--k", "1000000",
                           "--points", "10")
        assert code == EXIT_OK
        assert out.count("\r\n") == 1 + 10 + 9  # header, samples, one blank per later sample
        assert len(calls) <= 10 + 2, which


def test_density_verb_alias(capsys):
    code, out, _ = run(capsys, "density", "--k", "4")
    assert code == EXIT_OK
    lines = [ln for ln in out.split("\r\n") if ln]
    assert lines[0] == "index,lambda"
    assert len(lines) == 9  # header plus the 8 eigenvalues of the order-8 graph


def test_figure_usage_errors(capsys):
    assert run(capsys, "figure-data", "--which", "surface")[0] == EXIT_USAGE
    assert run(capsys, "figure-data", "--which", "theta", "--points", "5")[0] == EXIT_USAGE
    assert run(capsys, "figure-data", "--which", "density", "--k", "1")[0] == EXIT_USAGE
    assert run(capsys, "figure-data", "--which", "odd-curves", "--k", "1")[0] == EXIT_USAGE
    assert run(capsys, "figure-data", "--which", "even-curves", "--points", "9")[0] == EXIT_USAGE
    assert run(capsys, "density", "--k", "1") == (
        EXIT_USAGE, "", "error: density --k must be >= 2, got 1\n")


@pytest.mark.parametrize("argv, bound", [
    (("spectrum", "--n"), solver._MAX_ORDER),
    (("figure-data", "--which", "even-curves", "--k"), solver._MAX_K),
    (("figure-data", "--which", "odd-curves", "--k"), solver._MAX_K),
    (("figure-data", "--which", "density", "--k"), solver._MAX_K),
    (("density", "--k"), solver._MAX_K),
])
def test_huge_orders_are_usage_errors(capsys, argv, bound):
    # a 401-digit order once ended in an OverflowError traceback, exit 1
    for value in (bound + 1, 10 ** 400):
        code, out, err = run(capsys, *argv, str(value))
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ") and err.endswith(" must be <= %d, got %d\n" % (bound, value))


def test_figure_options_are_checked_only_where_read(capsys):
    # theta ignores --k and density ignores --points
    theta = run(capsys, "figure-data", "--which", "theta", "--points", "20")
    assert run(capsys, "figure-data", "--which", "theta", "--points", "20", "--k", "1") == theta
    density = run(capsys, "density", "--k", "4")
    assert run(capsys, "figure-data", "--which", "density", "--k", "4", "--points", "3") == density
    # the density verb has no --points
    assert run(capsys, "density", "--k", "4", "--points", "3") == (
        EXIT_USAGE, "", "error: unrecognized arguments: --points 3\n")


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "table1", "--out", str(target))
    assert code == EXIT_OK
    assert out == ""
    data = target.read_bytes()
    assert data.startswith(b"n,computed,reference,delta\r\n")


def test_out_unwritable_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "spectrum", "--n", "4", "--out", str(target))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: cannot write --out %s: No such file or directory\n" % target


def test_empty_out_is_usage_error(capsys):
    # --out "$UNSET" once fell through to stdout
    assert run(capsys, "spectrum", "--n", "3", "--out", "") == (
        EXIT_USAGE, "", "error: cannot write --out : No such file or directory\n")


def test_out_error_comes_before_range_errors(capsys):
    code, out, err = run(capsys, "spectrum", "--n", "1", "--out", "/nonexistent/d/x.json")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: cannot write --out /nonexistent/d/x.json:")


@pytest.mark.parametrize("verb", ["spectrum", "table1", "verify", "scan", "figure-data",
                                  "density"])
def test_every_verb_help_describes_out(capsys, verb):
    with pytest.raises(SystemExit) as exit_info:
        main([verb, "--help"])
    assert exit_info.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())  # argparse wraps to the terminal
    assert "--out OUT write output to this file instead of stdout" in help_text


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_out_write_failure_is_usage_error(capsys):
    code, out, err = run(capsys, "table1", "--out", "/dev/full")
    assert code == EXIT_USAGE
    assert err == "error: cannot write --out /dev/full: No space left on device\n"


def test_out_unwritable_fails_before_the_work(monkeypatch, capsys):
    def no_solve(n):
        raise AssertionError("solver ran before --out was opened")

    monkeypatch.setattr(solver, "solve_spectrum", no_solve)
    code, out, err = run(capsys, "verify", "--n-max", "40", "--out", "/nonexistent/d/x.txt")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: cannot write --out /nonexistent/d/x.txt:")


@pytest.mark.parametrize("argv", [
    ("spectrum", "--n", "1"),
    ("spectrum", "--n", "3000", "--method", "dense"),
    ("verify", "--n-max", "501"),
    ("scan", "--n", "31"),
    ("scan", "--n", "5", "--workers", "0"),
    ("figure-data", "--which", "theta", "--points", "5"),
])
def test_usage_error_leaves_out_alone(tmp_path, capsys, argv):
    kept = tmp_path / "kept.txt"
    kept.write_text("earlier output\n")
    assert run(capsys, *argv, "--out", str(kept))[0] == EXIT_USAGE
    assert kept.read_text() == "earlier output\n"
    fresh = tmp_path / "fresh.txt"
    assert run(capsys, *argv, "--out", str(fresh))[0] == EXIT_USAGE
    assert not fresh.exists()


def test_failed_work_leaves_out_alone(tmp_path, monkeypatch, capsys):
    def broken(n):
        raise ValueError("broken solver")

    monkeypatch.setattr(solver, "solve_spectrum", broken)
    kept = tmp_path / "kept.txt"
    kept.write_text("earlier output\n")
    assert run(capsys, "spectrum", "--n", "8", "--out", str(kept))[0] == EXIT_USAGE
    assert kept.read_text() == "earlier output\n"
    # nor does it leave a file at a fresh --out path
    fresh = tmp_path / "fresh.txt"
    assert run(capsys, "spectrum", "--n", "8", "--out", str(fresh))[0] == EXIT_USAGE
    assert not fresh.exists()

    def interrupted(n):
        raise KeyboardInterrupt

    monkeypatch.setattr(solver, "solve_spectrum", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["spectrum", "--n", "8", "--out", str(fresh)])
    assert not fresh.exists()
    with pytest.raises(KeyboardInterrupt):
        main(["spectrum", "--n", "8", "--out", str(kept)])
    assert kept.read_text() == "earlier output\n"


def test_failed_work_leaves_a_dangling_out_link_dangling(tmp_path, monkeypatch, capsys):
    # the probe creates the link's target; it must remove that, not the link
    link = tmp_path / "link.json"
    target = tmp_path / "target.json"
    os.symlink("target.json", link)

    def broken(n):
        raise ValueError("broken solver")

    monkeypatch.setattr(solver, "solve_spectrum", broken)
    assert run(capsys, "spectrum", "--n", "8", "--out", str(link)) == (
        EXIT_USAGE, "", "error: broken solver\n")
    assert link.is_symlink() and not target.exists()

    def interrupted(n):
        raise KeyboardInterrupt

    monkeypatch.setattr(solver, "solve_spectrum", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["spectrum", "--n", "8", "--out", str(link)])
    assert link.is_symlink() and not target.exists()

    monkeypatch.undo()  # a run that succeeds writes through the link
    assert run(capsys, "spectrum", "--n", "8", "--out", str(link)) == (EXIT_OK, "", "")
    assert link.is_symlink() and json.loads(target.read_text())["n"] == 8


def test_python_m_arspec_sets_the_exit_code():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def arspec(*argv):
        proc = subprocess.run([sys.executable, "-m", "arspec", *argv], capture_output=True,
                              text=True, env=env, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    code, out, err = arspec("spectrum", "--n", "4")
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["n"] == 4
    code, out, _ = arspec("verify", "--n-max", "4", "--tamper")
    assert code == EXIT_CHECK_FAILED
    assert "\noracle-equivalence: FAIL" in "\n" + out
    assert arspec("spectrum", "--n", "1") == (
        EXIT_USAGE, "", "error: spectrum --n must be >= 2, got 1\n")
