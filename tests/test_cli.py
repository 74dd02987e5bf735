import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wlab.cli
from wlab.cli import RESIDUAL_CSV_COLUMNS, ConfigError, main, run_analysis, validate_config
from wlab.diagnostics import RESIDUALS, analyze, convergence_L_inf
from wlab.frame import Chart, ChartError
from wlab.gallery import GALLERY, clifford


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "surface": {"name": "clifford", "params": {}},
        "grid": {"nu": 48, "nv": 48},
        "seed": 0,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_validate_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="grir"):
        validate_config({"surface": {"name": "clifford"}, "grir": {}})


def test_validate_config_rejects_unknown_surface():
    with pytest.raises(ConfigError, match="not in the gallery"):
        validate_config({"surface": {"name": "torus_of_mystery"}})


def test_validate_config_rejects_small_grid():
    with pytest.raises(ConfigError, match="grid"):
        validate_config({"surface": {"name": "clifford"}, "grid": {"nu": 4, "nv": 64}})


def test_analyze_clifford_passes(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "report.json"
    assert main(["analyze", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema_version"] == 1
    assert report["passed"] is True
    assert report["energies"]["W_conformal"] == pytest.approx(2 * np.pi**2, abs=1e-6)
    assert report["ranks"] == {"kappa_jet_rank": 4, "lift_rank": 5}


def test_analyze_nonflat_control_fails_verdict(tmp_path):
    cfg = write_config(
        tmp_path,
        surface={"name": "veronese", "params": {}},
        grid={"nu": 64, "nv": 24},
        tolerances={"flat_normal": 1e-6},
    )
    assert main(["analyze", cfg, "--out", str(tmp_path / "r.json")]) == 1


def test_malformed_config_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"surface": {"name": "clifford"}, "grids": {}}))
    assert main(["analyze", str(path)]) == 2
    assert "grids" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000],
                         ids=["not_utf8", "nested_too_deeply"])
@pytest.mark.parametrize("command", ["analyze", "fields", "convergence"])
def test_unreadable_config_exits_2_from_every_subcommand(tmp_path, capsys, command, content):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    argv = ["--sizes", "16,24,32"] if command == "convergence" else []
    assert main([command, str(path)] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: cannot read config")
    assert captured.err.count("\n") == 1


def test_construction_failure_exit_code(tmp_path):
    cfg = write_config(
        tmp_path,
        surface={"name": "hopf_from_curvature",
                 "params": {"k1": 0.0, "k2": 0.5, "ambient_complex_dim": 2}},
    )
    assert main(["analyze", cfg]) == 3


def test_reports_are_deterministic(tmp_path):
    cfg = write_config(tmp_path, transforms=[{"mobius": {"seed": 3, "magnitude": 0.5}}])
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["analyze", cfg, "--out", str(out1)]) == 0
    assert main(["analyze", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_gallery_list(capsys):
    assert main(["gallery", "list"]) == 0
    listed = capsys.readouterr().out
    for name in ("clifford", "round_sphere", "pinkall_hopf_torus",
                 "hopf_from_curvature", "homogeneous_cp2_hopf", "veronese"):
        assert name in listed


def test_fields_dump(tmp_path):
    cfg = write_config(tmp_path, grid={"nu": 16, "nv": 16})
    out = tmp_path / "fields.csv"
    assert main(["fields", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header == ["u", "v", "kkbar", "abs_kk", "theta", "res_willmore",
                      "res_swillmore", "res_flat", "res_gauss", "res_codazzi",
                      "omega_abs"]
    assert len(lines) == 1 + 16 * 16
    kkbar = np.array([float(line.split(",")[2]) for line in lines[1:]])
    assert np.abs(kkbar - 0.125).max() < 1e-9


def test_fields_csv_matches_a_row_loop(tmp_path):
    cfg = write_config(tmp_path, surface={"name": "veronese", "params": {}},
                       grid={"nu": 32, "nv": 16})
    out = tmp_path / "fields.csv"
    assert main(["fields", cfg, "--out", str(out)]) == 0
    report = run_analysis(validate_config(json.loads(open(cfg).read())))
    uu, vv = report.spec.meshgrid()
    flat = {c: np.asarray(report.fields[c]).ravel() for c in RESIDUAL_CSV_COLUMNS}
    rows = [["u", "v"] + RESIDUAL_CSV_COLUMNS]
    for i, (u, v) in enumerate(zip(uu.ravel(), vv.ravel())):
        rows.append([repr(float(u)), repr(float(v))]
                    + [repr(float(flat[c][i])) for c in RESIDUAL_CSV_COLUMNS])
    assert out.read_text() == "\n".join(",".join(r) for r in rows) + "\n"


def test_convergence_table(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "table.json"
    assert main(["convergence", cfg, "--sizes", "16,24,32", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    table = json.loads(out.read_text())
    assert table["sizes"] == [16, 24, 32]
    assert "willmore" in table["residual_L_inf"]
    # every spectral row sits at roundoff, whatever the sign of its noise slope
    labels = {name: fit["label"] for name, fit in table["fitted_order"].items()
              if isinstance(fit, dict)}
    assert len(labels) == len(table["fitted_order"]) - 1  # flat_normal is exactly 0
    assert set(labels.values()) == {"roundoff floor"}, labels
    assert text.count("roundoff floor") == len(labels)


def test_the_sweep_is_the_same_at_every_thread_count(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path)
    runs = []
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("WLAB_THREADS", threads)
        out = tmp_path / f"table{threads}.json"
        assert main(["convergence", cfg, "--sizes", "16,24,32", "--out", str(out)]) == 0
        runs.append((out.read_text(), capsys.readouterr().out))
    assert runs[1] == runs[0] and runs[2] == runs[0]
    table = json.loads(runs[0][0])
    for k, n in enumerate((16, 24, 32)):
        report = analyze(clifford(n, n))
        got = [table["residual_L_inf"][row.name][k] for row in RESIDUALS]
        want = [convergence_L_inf(report, row.field) for row in RESIDUALS]
        assert np.array_equal(got, want, equal_nan=True), n


@pytest.mark.parametrize("sizes, code", [("16,24,32", 3), ("16,32,24", 4)])
def test_a_sweep_exits_with_the_code_of_its_first_failing_size(
    tmp_path, capsys, monkeypatch, sizes, code
):
    # size 24 cannot be built (exit 3) and size 32 fails its analysis (exit 4)
    build, run = wlab.cli.build_surface, wlab.cli.analyze

    def build_unless_24(name, nu, nv, params):
        if nu == 24:
            raise ChartError("no chart at 24")
        return build(name, nu, nv, params)

    def analyze_unless_32(chart, tolerances=None):
        if chart.spec.nu == 32:
            raise RuntimeError("no analysis at 32")
        return run(chart, tolerances=tolerances)

    monkeypatch.setattr("wlab.cli.build_surface", build_unless_24)
    monkeypatch.setattr("wlab.cli.analyze", analyze_unless_32)
    cfg = write_config(tmp_path)
    assert main(["convergence", cfg, "--sizes", sizes]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert ("no chart at 24" if code == 3 else "no analysis at 32") in captured.err


def test_convergence_bad_sizes(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["convergence", cfg, "--sizes", "16,banana"]) == 2
    assert main(["convergence", cfg, "--sizes", "16,32"]) == 2


# a repeated size would be analyzed twice and weigh the fitted order twice
@pytest.mark.parametrize("sizes", ["4,5,6", "16,24,-32", "16,16,16", "16,16,24,32"])
def test_convergence_sizes_below_8_or_not_distinct_exit_2(tmp_path, capsys, sizes):
    cfg = write_config(tmp_path)
    assert main(["convergence", cfg, "--sizes", sizes]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--sizes" in captured.err and captured.err.count("\n") == 1


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, message", [
    (["bogus"], "invalid choice: 'bogus'"),
    ([], "required: command"),
    (["gallery", "foo"], "invalid choice: 'foo'"),
    (["analyze"], "required: config"),
    (["fields"], "required: config"),
    (["analyze", "missing.json"], "cannot read config"),
    (["convergence", "cfg.json"], "required: --sizes"),
])
def test_usage_errors_exit_2_with_one_line(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path)
    assert exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and captured.err.count("\n") == 1


def test_transform_pipeline(tmp_path):
    cfg = write_config(
        tmp_path,
        transforms=[{"include_n": 5}, {"mobius": {"seed": 2, "magnitude": 1.0}}],
    )
    out = tmp_path / "r.json"
    assert main(["analyze", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["chart"]["ambient_n"] == 5
    assert report["ranks"]["lift_rank"] == 5
    assert report["energies"]["W_conformal"] == pytest.approx(2 * np.pi**2, abs=1e-7)


@pytest.mark.parametrize("tolerances, message", [
    ({"wilmore": 1e-3}, "unknown residual"),
    ({"willmore": True}, "finite number"),
    ({"willmore": float("inf")}, "finite number"),
])
@pytest.mark.parametrize("command", ["analyze", "convergence"])
def test_bad_tolerance_is_config_error(tmp_path, capsys, command, tolerances, message):
    cfg = write_config(tmp_path, tolerances=tolerances)
    argv = [command, cfg] + (["--sizes", "16,24,32"] if command == "convergence" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1


@pytest.mark.parametrize("params, message", [
    ({"radius": 2}, "unknown param"),
    ([1, 2], "must be an object"),
])
def test_bad_surface_params_are_config_errors(tmp_path, capsys, params, message):
    cfg = write_config(tmp_path, surface={"name": "clifford", "params": params})
    assert main(["analyze", cfg]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1


@pytest.mark.parametrize("overrides, code, message", [
    ({"seed": True}, 2, "'seed' must be a non-negative integer"),
    ({"seed": -1}, 2, "'seed' must be a non-negative integer"),
    ({"transforms": [{"include_n": "abc"}]}, 2, "'include_n' must be an integer"),
    ({"transforms": [{"include_n": 5.7}]}, 2, "'include_n' must be an integer"),
    ({"transforms": [{"include_n": True}]}, 2, "'include_n' must be an integer"),
    ({"transforms": [{"mobius": 5}]}, 2, "'mobius' must be an object"),
    ({"transforms": [{"mobius": {"sed": 1}}]}, 2, "unknown key(s) ['sed']"),
    ({"transforms": [{"mobius": {"seed": "x"}}]}, 2, "'seed' must be a non-negative integer"),
    ({"transforms": [{"mobius": {"seed": False}}]}, 2, "'seed' must be a non-negative integer"),
    ({"transforms": [{"mobius": {"seed": -1}}]}, 2, "'seed' must be a non-negative integer"),
    ({"transforms": [{"mobius": {"magnitude": float("inf")}}]}, 2, "finite number"),
    ({"transforms": [{"mobius": {"magnitude": "big"}}]}, 2, "finite number"),
    # a well-formed target below the chart's sphere is the chart's fault
    ({"transforms": [{"include_n": 2}]}, 3, "smaller than the chart"),
])
def test_bad_seed_and_transforms_exit_codes(tmp_path, capsys, overrides, code, message):
    cfg = write_config(tmp_path, **overrides)
    assert main(["analyze", cfg]) == code
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1


def _nan_chart(name, nu, nv, params):
    chart = clifford(nu, nv)
    chart.points[3, 4] = np.nan
    return chart


def _stretched_chart(name, nu, nv, params):
    # Clifford samples on a grid whose v extent is halved: not conformal
    chart = clifford(nu, nv)
    return Chart(replace(chart.spec, Lv=chart.spec.Lv / 2), chart.points)


SUBCOMMANDS = {
    "analyze": [],
    "fields": ["--out", "fields.csv"],
    "convergence": ["--sizes", "16,24,32"],
}


@pytest.mark.parametrize("outputs", [
    5,
    {"kind": "report", "path": "r.json"},
    [5],
    [{"kind": "report"}],
    [{"kind": "report", "path": 7}],
    [{"kind": "report", "path": True}],
    [{"kind": "report", "path": ""}],
    [{"kind": "plot", "path": "r.json"}],
    [{"kind": ["report"], "path": "r.json"}],
    [{"kind": "report", "path": "r.json", "mode": "a"}],
    [{"kind": "report", "path": "r\0.json"}],
    # a string is the `--out` path of a config with valid outputs
    pytest.param("r\0.json", id="nul-in-out-option"),
])
@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_malformed_outputs_exit_2_from_every_subcommand(
    tmp_path, capsys, monkeypatch, command, outputs
):
    monkeypatch.chdir(tmp_path)
    via_out = isinstance(outputs, str)
    cfg = write_config(tmp_path, grid={"nu": 16, "nv": 16}, outputs=[] if via_out else outputs)
    argv = [command, cfg] + SUBCOMMANDS[command]
    if via_out:
        argv = [a for a in argv if a not in ("--out", "fields.csv")] + ["--out", outputs]
        monkeypatch.setattr("wlab.cli.run_analysis", lambda *a: pytest.fail("ran the analysis"))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "output" in captured.err and captured.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("target", ["missing/out.txt", "."])
@pytest.mark.parametrize("command, via", [
    ("analyze", "--out"), ("analyze", "outputs"), ("fields", "--out"),
    ("fields", "outputs"), ("convergence", "--out"),
])
def test_unwritable_output_exits_2_from_every_subcommand(
    tmp_path, capsys, monkeypatch, command, via, target
):
    monkeypatch.chdir(tmp_path)
    outputs = [{"kind": "fields" if command == "fields" else "report", "path": target}]
    cfg = write_config(tmp_path, grid={"nu": 16, "nv": 16},
                       outputs=outputs if via == "outputs" else [])
    argv = [command, cfg] + (["--sizes", "16,24,32"] if command == "convergence" else [])
    argv += ["--out", target] if via == "--out" else []
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {target!r}") and err.count("\n") == 1


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
@pytest.mark.parametrize("build, message", [
    (_nan_chart, "non-finite"),
    (_stretched_chart, "not conformal"),
])
def test_chart_errors_exit_3_from_every_subcommand(
    tmp_path, capsys, monkeypatch, command, build, message
):
    monkeypatch.setattr("wlab.cli.build_surface", build)
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, grid={"nu": 16, "nv": 16})
    assert main([command, cfg] + SUBCOMMANDS[command]) == 3
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
@pytest.mark.parametrize("error", [MemoryError, OverflowError, ZeroDivisionError])
def test_any_chart_construction_failure_exits_3_from_every_subcommand(
    tmp_path, capsys, monkeypatch, command, error
):
    # stands in for a grid too large to allocate, without allocating it
    def build(name, nu, nv, params):
        raise error("cannot build this chart")

    monkeypatch.setattr("wlab.cli.build_surface", build)
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, grid={"nu": 16, "nv": 16})
    assert main([command, cfg] + SUBCOMMANDS[command]) == 3
    err = capsys.readouterr().err
    assert err.startswith("chart construction failed: ") and error.__name__ in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("value", [0, 0.0, -1, -1e-6])
@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_non_positive_tolerance_exits_2_from_every_subcommand(
    tmp_path, capsys, monkeypatch, command, value
):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, grid={"nu": 16, "nv": 16}, tolerances={"willmore": value})
    assert main([command, cfg] + SUBCOMMANDS[command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "positive finite number" in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("value", [0, -1])
def test_non_positive_tolerance_is_a_value_error_in_the_library(value):
    with pytest.raises(ValueError, match="positive finite number"):
        analyze(clifford(16, 16), tolerances={"willmore": value})


@pytest.mark.parametrize("surface", [
    {"name": "pinkall_hopf_torus", "params": {"c": "abc"}},
    # each below is a number to float() or np.asarray, yet no number in JSON
    {"name": "pinkall_hopf_torus", "params": {"c": True}},
    {"name": "hopf_from_curvature", "params": {"k1": "1"}},
    {"name": "hopf_from_curvature", "params": {"k1": True}},
    {"name": "homogeneous_cp2_hopf", "params": {"lambdas": [-1.0, "0.5", 2.0]}},
    {"name": "homogeneous_cp2_hopf", "params": {"lambdas": [-1.0, True, 2.0]}},
], ids=["c_abc", "c_true", "k1_string", "k1_true", "lambdas_string", "lambdas_true"])
def test_wrong_param_type_is_chart_error(tmp_path, capsys, surface):
    cfg = write_config(tmp_path, surface=surface, grid={"nu": 16, "nv": 16})
    assert main(["analyze", cfg]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "must be a number" in err, err


@pytest.mark.parametrize("surface, name", [
    ('{"name": "homogeneous_cp2_hopf", "params": {"lambdas": [-1, 0.5, 1e400]}}', "'lambdas'"),
    ('{"name": "pinkall_hopf_torus", "params": {"c": 1e400}}', "'c': inf"),
], ids=["lambdas_inf", "c_inf"])
def test_a_param_that_parses_to_inf_is_chart_error(tmp_path, capsys, surface, name):
    # JSON's 1e400 parses to inf, whose lift fails its constraint check
    path = tmp_path / "cfg.json"
    path.write_text('{"surface": %s, "grid": {"nu": 16, "nv": 16}}' % surface)
    assert main(["analyze", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "IndexError" not in err and name in err, err


@pytest.mark.parametrize("value", ["abc", "0", "-1", "1.5"])
@pytest.mark.parametrize("command", sorted(SUBCOMMANDS) + ["gallery"])
def test_malformed_thread_cap_exits_2_from_every_subcommand(
    tmp_path, capsys, monkeypatch, command, value
):
    monkeypatch.setenv("WLAB_THREADS", value)
    monkeypatch.chdir(tmp_path)
    if command == "gallery":
        argv = ["gallery", "list"]
    else:
        argv = [command, write_config(tmp_path, grid={"nu": 16, "nv": 16})] + SUBCOMMANDS[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "WLAB_THREADS" in captured.err and captured.err.count("\n") == 1


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args, timeout=300):
    """`python *args` in a fresh interpreter that imports wlab from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=timeout)


@pytest.mark.parametrize("magnitude", [803, 1000])
def test_an_overflowing_mobius_map_exits_3_with_one_line(tmp_path, magnitude):
    # a fresh process, where a numpy RuntimeWarning would reach stderr;
    # at 1000 the map overflows, at 803 only its image of the chart does
    cfg = write_config(tmp_path, grid={"nu": 32, "nv": 32},
                       transforms=[{"mobius": {"seed": 1, "magnitude": magnitude}}])
    proc = run_python("-m", "wlab.cli", "analyze", cfg)
    assert proc.returncode == 3
    assert "Mobius" in proc.stderr and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("surface", [
    {"name": "round_sphere", "params": {"extent": 1000}},  # cosh overflows
    {"name": "homogeneous_cp2_hopf",  # the FD weights overflow
     "params": {"lambdas": [-1.0, 0.5, 2.0], "t_window": 1e300}},
    {"name": "hopf_from_curvature", "params": {"k1": 1e300}},  # the ODE's step norms overflow
], ids=["round_sphere", "cp2_window", "hopf_ode"])
def test_numeric_warnings_never_reach_stderr(tmp_path, surface):
    cfg = write_config(tmp_path, surface=surface, grid={"nu": 16, "nv": 16})
    proc = run_python("-m", "wlab.cli", "analyze", cfg)
    assert proc.returncode == 3
    assert proc.stderr.startswith("chart ") and proc.stderr.count("\n") == 1, proc.stderr


def test_a_curve_past_the_ode_step_budget_exits_3_with_one_line(tmp_path):
    # without a step budget this curve's integration does not end
    cfg = write_config(tmp_path, surface={"name": "hopf_from_curvature",
                                          "params": {"k1": 1e20}},
                       grid={"nu": 16, "nv": 16})
    proc = run_python("-m", "wlab.cli", "analyze", cfg, timeout=60)
    assert proc.returncode == 3
    assert proc.stderr.startswith("chart construction failed: RuntimeError: frame ODE "
                                  "integration failed: more than"), proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr


COLD_START = """
import hashlib, sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import wlab, wlab.cli
mobius, hopf, out = sys.argv[2:]
print([wlab.cli.main(argv) for argv in (
    ["gallery", "list"],
    ["analyze", mobius, "--out", out + "/mobius.json"],
    ["analyze", hopf, "--out", out + "/hopf.json"],
    ["fields", hopf, "--out", out + "/hopf.csv"],
    ["convergence", hopf, "--sizes", "16,24,32", "--out", out + "/convergence.json"])])
res = wlab.hopf_from_curvature(32, 16, k1=1.0, k2=0.5, ambient_complex_dim=3)
print(hashlib.sha256(res.chart.points.tobytes()).hexdigest(),
      repr(res.closing_period), repr(res.lift_monodromy_phase))
print(sorted(m for m, mod in sys.modules.items() if mod and m.split(".")[0] == "scipy"))
"""


def test_every_subcommand_runs_without_scipy(tmp_path):
    mobius = write_config(tmp_path, "mobius.json", grid={"nu": 32, "nv": 32},
                          transforms=[{"mobius": {"seed": 1, "magnitude": 0.3}}])
    hopf = write_config(tmp_path, "hopf.json", grid={"nu": 32, "nv": 16}, surface={
        "name": "hopf_from_curvature",
        "params": {"k1": 1.0, "k2": 0.5, "ambient_complex_dim": 3}})
    runs = {}
    for mode in ("blocked", "unblocked"):
        out = tmp_path / mode
        out.mkdir()
        proc = run_python("-c", COLD_START, mode, mobius, hopf, str(out))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        # the open Hopf curve is no Willmore surface: its `analyze` exits 1
        assert lines[-3] == "[0, 0, 1, 0, 0]" and lines[-1] == "[]", proc.stdout
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        runs[mode] = proc.stdout, proc.stderr, files
    assert len(runs["blocked"][2]) == 4
    assert runs["blocked"] == runs["unblocked"]


# JSON whose integers are at most 64, so no grid, include_n or size it sets
# allocates much
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-64, 64) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                               max_size=3),
    max_leaves=6,
)
PARAMS = sorted({param for params in GALLERY.values() for param in params})
# per key, arbitrary JSON or an object of the right shape with arbitrary parts
NEAR_VALID = {
    "surface": st.fixed_dictionaries({"name": st.sampled_from(sorted(GALLERY)),
                                      "params": st.dictionaries(st.sampled_from(PARAMS), JSON)}),
    "grid": st.fixed_dictionaries({"nu": JSON, "nv": JSON}),
    "tolerances": st.dictionaries(st.sampled_from([r.name for r in RESIDUALS]), JSON),
    "transforms": st.lists(st.dictionaries(st.sampled_from(["include_n", "mobius"]), JSON,
                                           min_size=1, max_size=1), max_size=2),
    "outputs": st.lists(st.fixed_dictionaries({"kind": JSON, "path": JSON}), max_size=2),
    "seed": JSON,
}


@st.composite
def fuzzed_run(draw):
    """(config, [command, options]): one key of a valid config replaced,
    or a junk key added."""
    cfg = {"surface": {"name": "clifford", "params": {}}, "grid": {"nu": 16, "nv": 16}}
    key = draw(st.sampled_from(sorted(NEAR_VALID)) | st.text(max_size=6))
    cfg[key] = draw(JSON | NEAR_VALID.get(key, JSON))
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    if command != "convergence":
        return cfg, [command]
    sizes = draw(st.lists(st.integers(-8, 64), max_size=4) | st.just([16, 24, 32]))
    return cfg, [command, "--sizes", ",".join(map(str, sizes))]


@settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=fuzzed_run())
def test_any_config_exits_0_to_4_and_a_failure_prints_one_line(tmp_path, monkeypatch, run):
    monkeypatch.chdir(tmp_path)  # where configured outputs land
    cfg, (command, *options) = run
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, str(path), *options])
    assert code in (0, 1, 2, 3, 4)
    if code >= 2:
        assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue(), err.getvalue()
