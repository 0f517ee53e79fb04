"""Command-line interface: document schemas, determinism, and exit codes."""

import json
import math

import numpy as np
import pytest

from knotscatter import TorusKnot, UnknotXZ
from knotscatter.cli import main, parse_knot
from knotscatter.curves import moment_samples


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse refusing a flag
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_knot_selectors(tmp_path):
    assert parse_knot("torus:2,3") == TorusKnot(2, 3)
    assert parse_knot("unknot-xz") == UnknotXZ()
    path = tmp_path / "curve.json"
    pts = [[3.0 * math.cos(t), 3.0 * math.sin(t), 0.0] for t in np.arange(12) * math.pi / 6.0]
    path.write_text(json.dumps({"points": pts}))
    spec = parse_knot(f"file:{path}")
    assert len(spec.points) == 12
    for bad in ("torus:2", "torus:a,b", "circle", "file:/nonexistent.json"):
        with pytest.raises(ValueError):
            parse_knot(bad)


def test_moments_document(capsys):
    code, out, err = run_cli(capsys, "moments", "--knot", "torus:2,3")
    assert code == 0
    assert err == ""
    document = json.loads(out)
    assert document["knot"] == "torus:2,3"
    assert document["n_samples"] == moment_samples(TorusKnot(2, 3)) == 16
    np.testing.assert_allclose(document["K"], [0.0, 0.0, -9.0 * math.pi], atol=1e-10)
    np.testing.assert_allclose(document["dipole"], 0.0, atol=1e-12)
    assert np.asarray(document["O"]).shape == (3, 3, 3, 3)


def test_moments_rejects_csv(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["moments", "--knot", "unknot-xy", "--format", "csv"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


SUBCOMMAND_ARGV = {
    "moments": ["moments", "--knot", "unknot-xy"],
    "potential": ["potential", "--knot", "unknot-xy"],
    "amplitude": [
        "amplitude", "--knot", "torus:2,3", "--k", "0.5",
        "--ki-theta", "0.4", "--ki-phi", "1.1", "--kn-theta", "2.0", "--kn-phi", "-0.6",
    ],
    "sweep": ["sweep", "--knot", "torus:2,3", "--k", "0.5"],
    "factorize": ["factorize", "--p", "2", "--q", "3"],
    "selfcheck": ["selfcheck"],
}
FLAG_VALUES = {"--samples": "64", "--lambda0": "3.5", "--coupling": "1.0", "--format": "json"}
UNREAD_FLAGS = [
    ("moments", "--samples"), ("moments", "--lambda0"), ("moments", "--coupling"), ("moments", "--format"),
    ("potential", "--samples"), ("potential", "--lambda0"), ("potential", "--coupling"), ("potential", "--format"),
    ("amplitude", "--samples"), ("amplitude", "--format"),
    ("sweep", "--samples"), ("sweep", "--format"),
    ("factorize", "--samples"), ("factorize", "--coupling"), ("factorize", "--format"),
    ("selfcheck", "--samples"), ("selfcheck", "--coupling"), ("selfcheck", "--format"),
]


@pytest.mark.parametrize("command,flag", UNREAD_FLAGS)
def test_subcommands_reject_flags_they_do_not_read(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main(SUBCOMMAND_ARGV[command] + [flag, FLAG_VALUES[flag]])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_moments_from_sampled_file(tmp_path, capsys):
    path = tmp_path / "circle.json"
    pts = [[3.0 * math.cos(t), 3.0 * math.sin(t), 0.0] for t in np.arange(32) * math.pi / 16.0]
    path.write_text(json.dumps({"points": pts}))
    code, out, _ = run_cli(capsys, "moments", "--knot", f"file:{path}")
    assert code == 0
    document = json.loads(out)
    assert document["K"][2] == pytest.approx(-9.0 * math.pi)
    assert document["n_samples"] == moment_samples(parse_knot(f"file:{path}")) == 64


def test_short_point_list_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"points": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    code, _, err = run_cli(capsys, "moments", "--knot", f"file:{path}")
    assert code == 2
    assert "at least 8 points" in err


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize(
    "argv",
    [
        ("moments",),
        ("potential", "--r-min", "10", "--r-max", "20", "--n-r", "2"),
        ("amplitude", "--k", "0.5", "--ki-theta", "0.4", "--ki-phi", "1.1", "--kn-theta", "2.0", "--kn-phi", "-0.6"),
        ("sweep", "--k", "0.5", "--n", "2"),
    ],
    ids=lambda argv: argv[0],
)
def test_non_finite_file_points_are_a_config_error(tmp_path, capsys, bad, argv):
    path = tmp_path / "curve.json"
    rows = [f"[{3.0 * math.cos(t)!r}, {3.0 * math.sin(t)!r}, 0.0]" for t in np.arange(16) * math.pi / 8.0]
    rows[3] = f"[1.0, {bad}, 0.0]"
    path.write_text('{"points": [' + ", ".join(rows) + "]}")
    code, out, err = run_cli(capsys, argv[0], "--knot", f"file:{path}", *argv[1:])
    assert code == 2
    assert out == ""
    assert "curve point 3 is not finite" in err


def test_amplitude_refuses_an_overflowing_wave_number(capsys):
    # |k| = 1e200 squares past the float range, so its norm is inf
    argv = SUBCOMMAND_ARGV["amplitude"]
    code, out, err = run_cli(capsys, *argv[:argv.index("--k") + 1], "1e200", *argv[argv.index("--k") + 2:])
    assert code == 2
    assert out == ""
    assert "overflow" in err


def test_potential_csv_layout(capsys):
    code, out, _ = run_cli(
        capsys,
        "potential", "--knot", "torus:2,3",
        "--r-min", "20", "--r-max", "80", "--n-r", "4", "--method", "both",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,theta,phi,Ax,Ay,Az,method"
    assert len(lines) == 1 + 8
    assert lines[1].endswith("multipole")
    assert lines[-1].endswith("biot-savart")
    assert float(lines[1].split(",")[0]) == pytest.approx(20.0)
    # the two methods agree in the far zone, up to the truncated multipole tail
    mid = [line.split(",") for line in lines[1:]]
    row_m = next(r for r in mid if r[-1] == "multipole" and float(r[0]) == 80.0)
    row_b = next(r for r in mid if r[-1] == "biot-savart" and float(r[0]) == 80.0)
    vec_m = np.array([float(c) for c in row_m[3:6]])
    vec_b = np.array([float(c) for c in row_b[3:6]])
    assert np.linalg.norm(vec_m - vec_b) < 3e-3 * np.linalg.norm(vec_b)


def test_potential_rejects_bad_range(capsys):
    code, _, err = run_cli(capsys, "potential", "--knot", "unknot-xy", "--r-min", "50", "--r-max", "10")
    assert code == 2


def test_amplitude_document(capsys):
    code, out, _ = run_cli(
        capsys,
        "amplitude", "--knot", "torus:2,3", "--k", "0.5",
        "--ki-theta", "0.4", "--ki-phi", "1.1", "--kn-theta", "2.0", "--kn-phi", "-0.6",
    )
    assert code == 0
    document = json.loads(out)
    assert document["knot"] == "torus:2,3"
    assert document["coupling"] == 1.0
    assert sorted(document["v"]) == ["v1", "v2", "v3", "v4"]
    assert complex(*document["total"]) != 0


def test_amplitude_forward_is_config_error(capsys):
    code, _, err = run_cli(
        capsys,
        "amplitude", "--knot", "torus:2,3", "--k", "0.5",
        "--ki-theta", "0.4", "--ki-phi", "1.1", "--kn-theta", "0.4", "--kn-phi", "1.1",
    )
    assert code == 2
    assert "forward" in err


def test_sweep_is_deterministic(tmp_path):
    argv = ["sweep", "--knot", "torus:2,3", "--k", "0.5", "--n", "4", "--seed", "7"]
    first = tmp_path / "one.csv"
    second = tmp_path / "two.csv"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().strip().split("\n")
    assert lines[0].startswith("index,ki_x,ki_y,ki_z,kn_x")
    assert lines[0].endswith("total_re,total_im,abs_total_sq")
    assert len(lines) == 5


def test_factorize_pass_and_fail(capsys):
    code, out, _ = run_cli(capsys, "factorize", "--p", "2", "--q", "3", "--n", "3", "--seed", "5")
    assert code == 0
    document = json.loads(out)
    assert document["passed"] is True
    assert document["residual"] < 1e-10

    code, out, _ = run_cli(capsys, "factorize", "--p", "3", "--q", "2", "--n", "3", "--seed", "5")
    assert code == 1
    document = json.loads(out)
    assert document["passed"] is False
    assert document["residual"] > 1e-3


@pytest.mark.parametrize("lambda0", ["1.0", "3.0"])
@pytest.mark.parametrize("command", ["amplitude", "sweep", "factorize"])
def test_cutoff_inside_the_curve_is_config_error(capsys, command, lambda0):
    code, out, err = run_cli(capsys, *SUBCOMMAND_ARGV[command], "--lambda0", lambda0)
    assert code == 2
    assert out == ""
    assert "enclose" in err


def test_factorize_rejects_zero_coupling(capsys):
    # the residual's relative defect does not depend on g, so factorize takes
    # no --coupling at all; a zero one is refused by name
    code, out, err = run_cli(capsys, "factorize", "--p", "2", "--q", "3", "--n", "3", "--coupling", "0")
    assert code == 2
    assert out == ""
    assert "coupling" in err


@pytest.mark.parametrize("coupling", ["nan", "inf", "0"])
@pytest.mark.parametrize("command", ["amplitude", "sweep", "factorize"])
def test_non_finite_or_zero_coupling_is_config_error(capsys, command, coupling):
    # a NaN coupling once gave factorize "residual": 0.0 and exit 0 (it now
    # refuses the flag), and amplitude and sweep printed NaN or Infinity,
    # which is not JSON
    code, out, err = run_cli(capsys, *SUBCOMMAND_ARGV[command], "--coupling", coupling)
    assert code == 2
    assert out == ""
    assert "--coupling" in err


def test_factorize_refuses_windings_and_cutoff_before_drawing_kinematics(capsys, monkeypatch):
    monkeypatch.setattr("knotscatter.cli.random_kinematics", lambda *args: pytest.fail("kinematics were drawn"))
    for argv in (("--p", "2", "--q", "4"), ("--p", "2", "--q", "3", "--lambda0", "1.0")):
        code, out, _ = run_cli(capsys, "factorize", *argv, "--n", "100000")
        assert code == 2
        assert out == ""


def test_factorize_rejects_non_coprime(capsys):
    code, _, err = run_cli(capsys, "factorize", "--p", "2", "--q", "4")
    assert code == 2
    assert "coprime" in err


def test_selfcheck_passes_and_reports_known_discrepancy(capsys):
    code, out, _ = run_cli(capsys, "selfcheck")
    assert code == 0
    document = json.loads(out)
    assert document["passed"] is True
    names = [check["name"] for check in document["checks"]]
    assert "radial_closed_vs_quadrature" in names
    assert "far_field_truncation" in names
    assert all(check["passed"] for check in document["checks"])
    entries = document["discrepancies"]["entries"]
    assert len(entries) == 1
    assert entries[0]["monomial"] == [1, 0, 2]


def test_selfcheck_strict_tables_fails(capsys):
    code, out, _ = run_cli(capsys, "selfcheck", "--strict-tables")
    assert code == 1
    document = json.loads(out)
    assert document["passed"] is False
    assert document["strict_tables"] is True


def test_unknown_selector_is_config_error(capsys):
    code, _, err = run_cli(capsys, "moments", "--knot", "trefoil")
    assert code == 2
    assert "selector" in err


def test_out_file_writes_and_silences_stdout(tmp_path, capsys):
    target = tmp_path / "moments.json"
    code, out, _ = run_cli(capsys, "moments", "--knot", "unknot-xy", "--out", str(target))
    assert code == 0
    assert out == ""
    document = json.loads(target.read_text())
    assert document["K"][2] == pytest.approx(-9.0 * math.pi)
