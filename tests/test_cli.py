"""CLI suites, JSON reports, CSV emission, exit codes."""

import json
import pathlib
import subprocess
import sys
from fractions import Fraction as Q

import pytest

from gjms6.cli import main
from gjms6.report import CheckReport, emit_csv


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "gjms6.cli", *args],
        capture_output=True, text=True, timeout=600,
    )


def test_dtn_suite_json(tmp_path):
    out = tmp_path / "report.json"
    code = main(["dtn", "--geometry", "ball", "--n", "7", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"version", "config", "checks", "summary"}
    assert doc["summary"]["fail"] == 0
    assert doc["config"]["suite"] == "dtn"
    rec = doc["checks"][0]
    assert set(rec) == {"id", "tag", "status", "residual", "tolerance", "exact", "runtime_ms"}
    # exact residuals serialize as rationals
    assert any(c["residual"] == "0/1" for c in doc["checks"])


def test_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["dtn", "--geometry", "hyperbolic", "--n", "8", "--out", str(a)]) == 0
    assert main(["dtn", "--geometry", "hyperbolic", "--n", "8", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_exact_suites_leave_numpy_unloaded():
    """import gjms6 and the suites that compute nothing in floats (covariance,
    symmetry, and dtn on the ball, half space and geodesic model) never load
    numpy; only the float layer does."""
    code = (
        "import sys\n"
        "import gjms6\n"
        "assert 'numpy' not in sys.modules\n"
        "from gjms6.cli import main\n"
        "runs = [['covariance', '--n', '5'], ['symmetry', '--n', '7']]\n"
        "runs += [['dtn', '--n', '7', '--geometry', g] for g in ('ball', 'halfspace', 'hyperbolic')]\n"
        "print([main(argv) for argv in runs])\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-2:] == ["[0, 0, 0, 0, 0]", "False"]


def test_covariance_suite_small():
    import gjms6.cli as cli

    report = CheckReport("covariance", {})
    cli.run_covariance(report, 7, seed=5, probes=2)
    assert report.ok and report.n_pass > 0


def test_config_errors(tmp_path, capsys):
    assert main(["all", "--n", "4"]) == 2
    assert main(["critical", "--n", "7"]) == 2
    assert main(["trace", "--n", "5"]) == 2
    assert main(["trace", "--geometry", "hyperbolic", "--n", "7"]) == 2
    capsys.readouterr()
    csv = tmp_path / "series.csv"
    for argv in (
        ["dtn", "--lmax", "-1"],
        ["dtn", "--tol", "nan"],
        ["dtn", "--tol", "inf"],
        ["trace", "--n", "7", "--lmax", "129"],
        ["critical", "--n", "5", "--lmax", "129"],
        ["all", "--n", "5", "--lmax", "129"],
        ["trace", "--n", "7", "--geometry", "hemisphere", "--grid", "1"],
        ["trace", "--n", "7", "--geometry", "hemisphere", "--grid", "257"],
        ["trace", "--n", "7", "--geometry", "hemisphere", "--lmax", "8"],
        ["critical", "--n", "5", "--geometry", "ball", "--lmax", "8"],
        ["dtn", "--grid", "0"],
        ["dtn", "--csv", "multiplier_table"],
        ["dtn", "--csv", f"nosuch:{csv}"],
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("configuration error:"), argv
    assert not csv.exists()


def test_dtn_degree_caps_are_named(tmp_path):
    """The dtn suite runs its identities and self-adjointness pairings up to
    the named caps: a larger --lmax writes the same checks."""
    from gjms6.cli import DTN_IDENTITY_LMAX, DTN_SELFADJOINT_LMAX

    assert (DTN_IDENTITY_LMAX, DTN_SELFADJOINT_LMAX) == (6, 4)
    ids = []
    for lmax in ("6", "100"):
        out = tmp_path / f"dtn-{lmax}.json"
        assert main(["dtn", "--n", "7", "--lmax", lmax, "--out", str(out)]) == 0
        ids.append([c["id"] for c in json.loads(out.read_text())["checks"]])
    assert ids[0] == ids[1] and len(ids[0]) == 36


def test_guard_trips_are_config_errors(monkeypatch, capsys):
    """A Gram solve past COND_GUARD ends the run with status 2 and asks for a
    lower --lmax.  The critical run takes lmax 16, at which its extremal data
    are resolved, so that its guard is reached."""
    import gjms6.solver as solver
    from gjms6.traces import ball_interior_gram, hemisphere_interior_gram

    monkeypatch.setattr(solver, "COND_GUARD", 1.0)
    for argv in (
        ["trace", "--n", "7", "--lmax", "8"],
        ["trace", "--n", "7", "--geometry", "hemisphere", "--lmax", "8"],
        ["critical", "--n", "5", "--geometry", "hemisphere", "--lmax", "16"],
    ):
        ball_interior_gram.cache_clear()
        hemisphere_interior_gram.cache_clear()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("configuration error: mode matrix condition"), argv
        assert err.rstrip().endswith("lower --lmax"), argv


@pytest.mark.parametrize("argv", [
    ["trace", "--n", "7", "--geometry", "hemisphere", "--lmax", "100"],
    ["critical", "--n", "5", "--geometry", "hemisphere", "--lmax", "100"],
])
def test_guard_trips_on_real_hemisphere_degrees(argv):
    """With the guard as shipped, the float hemisphere matrix passes it
    below the --lmax cap of 128 (first at l = 98 for n = 7, l = 99 for
    n = 5), and the run ends with status 2."""
    out = run_cli(argv)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("configuration error: mode matrix condition"), out.stderr
    assert out.stderr.rstrip().endswith("lower --lmax"), out.stderr


@pytest.mark.parametrize("suite,geometry,n", [
    pytest.param("dtn", "ball", "7", id="ball-7"),
    pytest.param("dtn", "halfspace", "7", id="halfspace-7"),
    pytest.param("dtn", "hemisphere", "7", id="hemisphere-7"),
    pytest.param("dtn", "hyperbolic", "5", id="hyperbolic-5"),
    pytest.param("dtn", "hyperbolic", "7", id="hyperbolic-7"),
    pytest.param("dtn", "hyperbolic", "8", id="hyperbolic-8"),
    pytest.param("covariance", None, "5", id="covariance-5"),
])
def test_dtn_reports_match_golden_files(tmp_path, suite, geometry, n):
    """Byte-identical default reports.  These runs are exact, or on the
    hemisphere plain float arithmetic on correctly rounded inputs, so the
    files do not depend on BLAS or libm.  A run without a geometry uses the
    default one, and its file name leaves the geometry out."""
    out = tmp_path / "report.json"
    where = ["--geometry", geometry] if geometry else []
    assert main([suite, *where, "--n", n, "--out", str(out)]) == 0
    name = "-".join(filter(None, (suite, geometry, f"n{n}")))
    golden = pathlib.Path(__file__).parent / "data" / f"{name}.json"
    assert out.read_bytes() == golden.read_bytes()


def test_multiplier_table_csv(tmp_path):
    out = tmp_path / "mult.csv"
    code = main(["dtn", "--geometry", "ball", "--n", "7",
                 "--csv", f"multiplier_table:{out}"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "ell,multiplier"
    vals = [line.split(",")[1] for line in lines[1:4]]
    assert vals == ["120", "720", "2520"]


def test_missing_series_errors():
    report = CheckReport("dtn", {})
    with pytest.raises(KeyError):
        emit_csv(report, "gap_vs_epsilon", "/tmp/never.csv")


def test_entrypoint_exit_status():
    r = run_cli(["dtn", "--geometry", "halfspace", "--n", "7"])
    assert r.returncode == 0
    assert "summary:" in r.stdout
