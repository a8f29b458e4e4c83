"""Scenario files, reports, CSV export, and the command line."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

import sphere_nav.scenario as scenario_module
from sphere_nav import geometry as geo
from sphere_nav.cli import main as cli_main
from sphere_nav.constraints import ConicCap, ConstraintArrangement, pairwise_separation
from sphere_nav.errors import InvariantViolation, ScenarioParseError
from sphere_nav.scenario import (
    draw_initial_conditions,
    parse_scenario,
    run_scenario,
    validate_scenario,
)

from conftest import scenario_path


def tiny_scenario_doc(**overrides):
    doc = {
        "name": "tiny",
        "dimension": 2,
        "target": [0.0, 0.0, 1.0],
        "constraints": [
            {"type": "cap", "axis": [1.0, 0.0, 0.0], "xi": 0.4},
        ],
        "controller": {"law": "star-piecewise", "k1": 1.0, "kappa": 1.0,
                       "epsilon": 0.05},
        "sim": {"dt": 0.001, "T": 2.0, "log_stride": 10},
        "initial_conditions": {"count": 2, "seed": 5},
    }
    doc.update(overrides)
    return doc


def write_doc(tmp_path, doc, name="tiny.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def star_block(**overrides):
    """A small disc body on S^2 around -e_y, clear of the tiny cap and target."""
    block = {"type": "star", "anchor": [0.0, -2.0, 0.0],
             "profile": {"kind": "implicit-radial", "exponents": [2.0, 2.0],
                         "level": 0.25}}
    block.update(overrides)
    return block


# each document holds one malformed region; the parser must list it as a
# violation (second item: a fragment of the expected message)
MALFORMED_REGIONS = [
    (star_block(profile={"kind": "implicit-radial", "exponents": [2.0, 2.0]}),
     "level"),
    (star_block(kernel_on_sphere=[0.0, -2.0, 0.0]), "kernel_on_sphere"),
    (star_block(profile={"kind": "implicit-radial", "exponents": [-1.0, 2.0],
                         "level": 0.25}), "positive exponents"),
    (star_block(profile={"kind": "implicit-radial", "exponents": [2.0, 2.0, 2.0],
                         "level": 0.25}), "one exponent per body coordinate"),
    ({"type": "cap", "axis": [1.0, 0.0, 0.0], "xi": "wide"}, "xi"),
    (star_block(anchor="south"), "anchor"),
    (star_block(kernel="centre"), "kernel"),
    (star_block(normal="up"), "normal"),
    ({"type": "cap", "axis": [float("nan"), 0.0, 0.0], "xi": 0.4}, "axis"),
    (star_block(anchor=[0.0, float("-inf"), 0.0]), "anchor"),
    (star_block(profile={"kind": "implicit-radial", "exponents": [2.0, 2.0],
                         "level": float("nan")}), "finite"),
    (star_block(profile={"kind": "radial-table", "values": [0.3] * 7 + [float("inf")]}),
     "finite"),
    (star_block(kernel=[0.05, -2.0, 0.0],
                profile={"kind": "implicit-radial", "exponents": [0.4, 0.4],
                         "level": 0.5}), "exactly once"),
    # JSON strings and booleans are not numbers, in vectors and in every scalar
    ({"type": "cap", "axis": [False, True, False], "xi": 0.4}, "axis"),
    ({"type": "cap", "axis": [1.0, 0.0, 0.0], "xi": "0.5"}, "xi"),
    ({"type": "cap", "axis": [1.0, 0.0, 0.0], "xi": True}, "xi"),
    (star_block(anchor=["0", "-2", "0"]), "anchor"),
    (star_block(profile={"kind": "implicit-radial", "exponents": ["2", "2"],
                         "level": 0.25}), "array of numbers"),
    (star_block(profile={"kind": "implicit-radial", "exponents": "2",
                         "level": 0.25}), "array of numbers"),
    (star_block(profile={"kind": "implicit-radial", "exponents": [2.0, 2.0],
                         "level": "1.5"}), "not a number"),
    (star_block(profile={"kind": "radial-table", "values": [0.3] * 7 + [True]}),
     "array of numbers"),
]

# (section, key, value, fragment): a value of the wrong JSON type, or one that
# is non-numeric, not whole where an integer is due, non-finite or out of
# range, which the parser must list as a violation; section None is the top level.
# json writes and reads NaN and Infinity as bare literals.
MALFORMED_FIELDS = [
    (None, "target", "north", "target"),
    (None, "dimension", "three", "dimension"),
    ("controller", "k1", "fast", "k1"),
    ("controller", "kappa", "high", "kappa"),
    ("controller", "epsilon", "small", "epsilon"),
    ("initial_conditions", "count", "many", "count"),
    ("initial_conditions", "seed", "lucky", "seed"),
    ("sim", "dt", None, "sim"),
    ("controller", "kappa", None, "kappa"),
    ("initial_conditions", "seed", -1, "seed"),
    (None, "target", [float("nan"), 0.0, 0.0], "target"),
    ("controller", "k1", float("nan"), "k1"),
    ("controller", "kappa", float("nan"), "kappa"),
    ("controller", "epsilon", float("inf"), "epsilon"),
    ("sim", "dt", float("nan"), "sim"),
    ("sim", "T", float("inf"), "sim"),
    ("initial_conditions", "explicit", [[float("nan"), 0.0, 0.0]], "explicit"),
    (None, "delta", "wide", "delta"),
    (None, "delta", float("nan"), "delta"),
    (None, "delta", "0.13", "delta"),
    (None, "delta", True, "delta"),
    (None, "delta", 0, "delta"),
    (None, "delta", -1, "delta"),
    ("controller", "epsilon", True, "epsilon"),
    (None, "controller", "fast", "controller"),
    (None, "constraints", [5], "constraints"),
    (None, "constraints", {"a": 1}, "constraints"),
    (None, "sim", "x", "sim"),
    ("initial_conditions", "explicit", 5, "explicit"),
    ("sim", "log_stride", 2.5, "integer"),
    ("sim", "log_stride", True, "integer"),
    (None, "dimension", 3.7, "dimension"),
    ("initial_conditions", "count", 2.5, "count"),
    ("initial_conditions", "count", -3, "count"),
    (None, "name", "../escaped", "name"),
    (None, "name", 5, "name"),
    (None, "target", ["0", "0", "1"], "target"),
    ("initial_conditions", "explicit", [[False, True, False]], "explicit"),
]


def malformed_docs():
    for block, fragment in MALFORMED_REGIONS:
        yield tiny_scenario_doc(constraints=[block]), fragment
    yield tiny_scenario_doc(constraints=[]), "at least one region"
    for section, key, value, fragment in MALFORMED_FIELDS:
        doc = tiny_scenario_doc()
        (doc if section is None else doc[section])[key] = value
        yield doc, fragment
    yield [tiny_scenario_doc()], "JSON object"
    # star regions exist on S^2 and S^3 only; caps work on every S^n
    ball = {"type": "star", "anchor": [3.0, 0.0, 0.0, 0.0, 0.0],
            "profile": {"kind": "implicit-radial", "exponents": [2.0] * 4, "level": 1.0}}
    yield tiny_scenario_doc(dimension=4, target=[0.0, 0.0, 0.0, 0.0, 1.0],
                            constraints=[ball]), "S^2 and S^3"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_bundled_star4(star4):
    assert star4.dimension == 2
    assert len(star4.arrangement.sets) == 4
    assert star4.k1 == 1.0 and star4.kappa == 1.0 and star4.epsilon == 0.01
    assert star4.law == "star-piecewise"


def test_parse_bundled_cones7(cones7):
    arr = cones7.arrangement
    assert len(arr.sets) == 7
    assert all(abs(s.xi - np.pi / 6) <= 1e-12 for s in arr.sets)
    axes = np.array([s.axis.coords for s in arr.sets])
    expected = np.array([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
                         [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1],
                         [-1, 0, 0, 0]], dtype=float)
    assert np.allclose(axes, expected)
    assert cones7.epsilon == 0.015
    assert np.allclose(cones7.target.coords, [1, 0, 0, 0])


def test_parse_rejects_target_inside_cap(tmp_path):
    doc = tiny_scenario_doc(target=[1.0, 0.0, 0.0])
    with pytest.raises(InvariantViolation) as err:
        parse_scenario(write_doc(tmp_path, doc))
    assert any("target" in v for v in err.value.violations)


def test_parse_collects_multiple_violations(tmp_path):
    doc = tiny_scenario_doc(target=[1.0, 0.0, 0.0])
    doc["controller"]["k1"] = -1.0
    doc["initial_conditions"] = {"explicit": [[0.0, 0.7, 0.0]], "count": 0,
                                 "seed": 1}
    with pytest.raises(InvariantViolation) as err:
        parse_scenario(write_doc(tmp_path, doc))
    # target inside the cap, negative gain, and a non-unit explicit IC
    assert len(err.value.violations) >= 3
    # malformed regions are listed as violations, not raised as tracebacks
    for doc, fragment in malformed_docs():
        with pytest.raises(InvariantViolation) as err:
            parse_scenario(write_doc(tmp_path, doc))
        assert any(fragment in v for v in err.value.violations), fragment
    doc = tiny_scenario_doc(constraints=[b for b, _ in MALFORMED_REGIONS])
    with pytest.raises(InvariantViolation) as err:
        parse_scenario(write_doc(tmp_path, doc))
    assert len(err.value.violations) == len(MALFORMED_REGIONS)


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n "name": "x",\n broken\n}')
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(str(path))
    assert err.value.line == 3


def test_explicit_unsafe_ic_rejected(tmp_path):
    doc = tiny_scenario_doc()
    doc["initial_conditions"] = {"explicit": [[1.0, 0.0, 0.0]], "count": 0,
                                 "seed": 1}
    with pytest.raises(InvariantViolation) as err:
        parse_scenario(write_doc(tmp_path, doc))
    assert any("explicit[0]" in v for v in err.value.violations)


# ---------------------------------------------------------------------------
# validation reports
# ---------------------------------------------------------------------------

def test_validate_cones7_report(cones7):
    rep = validate_scenario(cones7, samples=4000)
    assert rep.ok, rep.failures
    # honest measured separation of the seven caps: 1 - cos(pi/2 - pi/3)
    assert abs(rep.delta_measured - (1 - np.cos(np.pi / 6))) <= 1e-4
    assert abs(rep.phi_delta - 0.0341) <= 1e-3
    assert abs(rep.eps_bar - 0.5) <= 1e-9
    assert rep.epsilon == 0.015
    assert all(rep.kernel_ok)
    assert rep.regions_disjoint
    # a later validation at another seed reports the same separation
    rep7 = validate_scenario(cones7, samples=500, seed=7)
    assert rep7.delta_measured == pairwise_separation(cones7.arrangement)


def test_validate_cones7_samples_no_cap(cones7, monkeypatch):
    # caps are validated in closed form: no boundary sample of a cap is read
    def refuse(*args, **kwargs):
        raise AssertionError("a cap was sampled")

    monkeypatch.setattr(ConicCap, "boundary_samples", refuse)
    arr = cones7.arrangement
    fresh = ConstraintArrangement(arr.sets, arr.kernels, delta_declared=arr.delta_declared)
    rep = validate_scenario(replace(cones7, arrangement=fresh), samples=20_000)
    assert rep.ok, rep.failures


def test_validate_flags_infeasible_band(star1):
    rep = validate_scenario(star1, samples=100)
    assert not rep.ok
    assert any("admissible" in f for f in rep.failures)
    assert rep.kappa_bar == float("inf")


def test_validate_suggests_kappa_once(star1, monkeypatch):
    # with kappa "auto" the configured gain is the suggestion validation made
    auto = replace(star1, kappa="auto")
    real, calls = scenario_module.suggest_kappa, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(scenario_module, "suggest_kappa", counted)
    rep = validate_scenario(auto, samples=100)
    assert len(calls) == 1
    monkeypatch.undo()
    assert rep.kappa_configured == rep.kappa_recommended == auto.resolved_kappa()
    fixed = validate_scenario(replace(star1, kappa=rep.kappa_recommended), samples=100)
    assert rep.to_dict() == fixed.to_dict()


def test_feasible_bundles_pass_validation(star4, star1_feasible):
    # run-before-validate ordering holds for every feasible bundled scenario
    for sc in (star4, star1_feasible):
        rep = validate_scenario(sc, samples=2000)
        assert rep.ok, rep.failures


def test_validate_duplicated_cap_scenario(tmp_path):
    doc = tiny_scenario_doc()
    doc["constraints"].append(dict(doc["constraints"][0]))
    doc["delta"] = 0.2
    sc = parse_scenario(write_doc(tmp_path, doc))
    rep = validate_scenario(sc, samples=100)
    assert not rep.ok
    assert any("separation" in f for f in rep.failures)


# ---------------------------------------------------------------------------
# runs and outputs
# ---------------------------------------------------------------------------

def test_run_empty_ic_list(tmp_path):
    doc = tiny_scenario_doc()
    doc["initial_conditions"] = {"count": 0, "seed": 1}
    sc = parse_scenario(write_doc(tmp_path, doc))
    rep = run_scenario(sc)
    assert rep.results == []


def test_run_outputs_and_determinism(tmp_path):
    doc = tiny_scenario_doc()
    doc["constraints"].append(star_block())
    sc = parse_scenario(write_doc(tmp_path, doc))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    rep1 = run_scenario(sc, out_dir=str(out1))
    rep2 = run_scenario(sc, out_dir=str(out2))
    assert rep1.to_json() == rep2.to_json()
    for fname in sorted(os.listdir(out1)):
        b1 = (out1 / fname).read_bytes()
        b2 = (out2 / fname).read_bytes()
        assert b1 == b2, fname
    # parallel execution produces identical artifacts
    out3 = tmp_path / "o3"
    rep3 = run_scenario(sc, out_dir=str(out3), parallel=2)
    for fname in sorted(os.listdir(out1)):
        assert (out1 / fname).read_bytes() == (out3 / fname).read_bytes()


def test_csv_format(tmp_path):
    sc = parse_scenario(write_doc(tmp_path, tiny_scenario_doc()))
    rep = run_scenario(sc, out_dir=str(tmp_path / "out"))
    path = rep.results[0].csv_path
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "t,x0,x1,x2,u0,u1,u2,d_target,d_unsafe,active_i,V_active"
    row = lines[1].split(",")
    assert len(row) == 11
    # float cells round-trip exactly through the 17-significant-digit format
    for tok in row[:9]:
        assert f"{float(tok):.17g}" == tok
    x = np.array([float(v) for v in row[1:4]])
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-10


def test_seed_env_override(tmp_path, monkeypatch, capsys):
    sc_path = write_doc(tmp_path, tiny_scenario_doc())
    sc = parse_scenario(sc_path)
    base = draw_initial_conditions(sc, 5)
    monkeypatch.setenv("SPHERE_NAV_SEED", "6")
    from sphere_nav.scenario import effective_seed
    assert effective_seed(sc) == 6
    other = draw_initial_conditions(sc, effective_seed(sc))
    assert not np.allclose(base[0], other[0])
    # a seed that is not an integer is a runtime failure, not a traceback
    monkeypatch.setenv("SPHERE_NAV_SEED", "abc")
    assert cli_main(["run", sc_path]) == 2
    assert "runtime failure" in capsys.readouterr().err
    monkeypatch.delenv("SPHERE_NAV_SEED")
    assert effective_seed(sc) == 5


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_validate_exit_codes(tmp_path, capsys):
    sc_path = write_doc(tmp_path, tiny_scenario_doc())
    assert cli_main(["validate", sc_path, "--samples", "100"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    # the infeasible bundled scenario fails validation
    assert cli_main(["validate", scenario_path("s3_star1"),
                     "--samples", "100"]) == 1
    capsys.readouterr()
    # a seed or sample count the check cannot use is a runtime failure
    for flags in (["--seed", "-1"], ["--samples", "-5"], ["--samples", "0"]):
        assert cli_main(["validate", sc_path, *flags]) == 2, flags
        captured = capsys.readouterr()
        assert "runtime failure" in captured.err and captured.out == "", flags


def test_cli_validate_rejects_bad_file(tmp_path, capsys):
    doc = tiny_scenario_doc(target=[1.0, 0.0, 0.0])
    path = write_doc(tmp_path, doc)
    assert cli_main(["validate", path]) == 1
    assert "target" in capsys.readouterr().err
    for doc, fragment in malformed_docs():
        path = write_doc(tmp_path, doc)
        for command in ("validate", "run"):
            assert cli_main([command, path]) == 1
            err = capsys.readouterr().err
            assert "scenario invariants violated" in err and fragment in err


def test_cli_run_and_outputs(tmp_path, capsys):
    sc_path = write_doc(tmp_path, tiny_scenario_doc())
    out = tmp_path / "runout"
    assert cli_main(["run", sc_path, "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_runs"] == 2
    names = sorted(os.listdir(out))
    assert "tiny_summary.json" in names
    assert "tiny_plot_long.csv" in names
    long_lines = (out / "tiny_plot_long.csv").read_text().splitlines()
    assert long_lines[0] == "t,d_target,d_unsafe,ic_id"
    # a negative seed is a runtime failure, not a traceback
    assert cli_main(["run", sc_path, "--seed", "-1"]) == 2
    assert "runtime failure" in capsys.readouterr().err


@pytest.mark.parametrize("law", [
    {"law": "star-piecewise", "k1": 1.0, "kappa": 1.0, "epsilon": 0.2},
    {"law": "conic-gradient", "k1": 1.0, "epsilon": 0.2}])
def test_cli_run_start_in_two_bands(tmp_path, capsys, law):
    # the start lies within eps of both caps, so each law refuses it: the run
    # aborts with the start logged (u = 0, no band) and the batch still reports
    start = [0.24253562503633297, 0.9203579866168446, 0.3067859955389482]
    doc = tiny_scenario_doc(
        target=[1.0, 0.0, 0.0],
        constraints=[{"type": "cap", "axis": [0.0, 1.0, 0.0], "xi": 0.3},
                     {"type": "cap", "axis": [0.0, 0.8, 0.6], "xi": 0.3}],
        controller=law, initial_conditions={"explicit": [start]})
    out = tmp_path / "runout"
    assert cli_main(["run", write_doc(tmp_path, doc), "--out", str(out)]) == 2
    (result,) = json.loads(capsys.readouterr().out)["results"]
    assert result["verdict"] == "aborted"
    assert result["note"].startswith("band uniqueness violated")
    assert np.allclose(result["x0"], start, atol=1e-15)
    rows = (out / result["csv_file"]).read_text().splitlines()[1:]
    assert len(rows) >= 1 and rows[0].startswith("0,")


def test_cli_diagnose(tmp_path, capsys):
    doc = tiny_scenario_doc()
    doc["controller"] = {"law": "conic-gradient", "k1": 1.0, "epsilon": 0.05}
    sc_path = write_doc(tmp_path, doc)
    assert cli_main(["diagnose", sc_path, "--equilibria"]) == 0
    payload = json.loads(capsys.readouterr().out)
    labels = {e["label"]: e for e in payload["spectra"]}
    assert "target" in labels
    eig = sorted(labels["target"]["eig_ambient"])
    assert np.allclose(eig, [-2, -1, -1], atol=1e-4)
    # the antipode lies clear of the single cap, so it is diagnosed too
    assert "antipode" in labels
    eig2 = sorted(labels["antipode"]["eig_ambient"])
    assert np.allclose(eig2, [1 / 9, 1 / 9, 2 / 9], atol=1e-4)
    # --at takes a unit vector in the scenario's dimension, normalized ...
    assert cli_main(["diagnose", sc_path, "--at", "0.6,0,0.8000001"]) == 0
    point = json.loads(capsys.readouterr().out)["spectra"][-1]
    assert point["label"] == "point0" and "eig_ambient" in point
    assert abs(np.linalg.norm(point["x"]) - 1.0) <= 1e-15
    # ... and nothing else
    for at in ("1,0", "0,0,0", "2,0,0", "nan,0,0", "0,0,0,1", "north,0,0"):
        assert cli_main(["diagnose", sc_path, "--at", at]) == 2, at
        captured = capsys.readouterr()
        assert "runtime failure" in captured.err and captured.out == "", at


def test_cli_diagnose_non_smooth_point(tmp_path, capsys):
    doc = tiny_scenario_doc()
    doc["controller"] = {"law": "conic-gradient", "k1": 1.0, "epsilon": 0.05}
    sc_path = write_doc(tmp_path, doc)
    edge = geo.rotate_toward(np.array([1.0, 0.0, 0.0]),
                             np.array([0.0, 0.0, 1.0]),
                             0.4 + geo.angle_from_distance(0.05))
    at = ",".join(f"{v:.17g}" for v in edge)
    assert cli_main(["diagnose", sc_path, "--at", at]) == 0
    payload = json.loads(capsys.readouterr().out)
    entry = [e for e in payload["spectra"] if e["label"] == "point0"][0]
    assert "error" in entry or "note" in entry


def test_cli_sweep(tmp_path, capsys):
    sc_path = write_doc(tmp_path, tiny_scenario_doc())
    assert cli_main(["sweep", sc_path, "--param", "kappa",
                     "--values", "0.5,1.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["value"] for row in payload["sweep"]] == [0.5, 1.0]
    assert cli_main(["sweep", sc_path, "--param", "nope",
                     "--values", "1"]) == 2
    capsys.readouterr()
    assert cli_main(["sweep", sc_path, "--param", "dt", "--values", "0.002"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sweep"][0]["n_runs"] == 2
    assert cli_main(["sweep", sc_path, "--param", "dt", "--values", "0"]) == 2
    assert "runtime failure at dt=0" in capsys.readouterr().err
    for param in ("k1", "kappa", "epsilon", "dt"):
        assert cli_main(["sweep", sc_path, "--param", param, "--values", "nan"]) == 2
        assert f"runtime failure at {param}=nan" in capsys.readouterr().err
    # the conic law never reads kappa, so a kappa sweep would repeat one run
    doc = tiny_scenario_doc()
    doc["controller"] = {"law": "conic-gradient", "k1": 1.0, "epsilon": 0.05}
    conic_path = write_doc(tmp_path, doc, "conic.json")
    assert cli_main(["sweep", conic_path, "--param", "kappa",
                     "--values", "0.5,1.0"]) == 2
    captured = capsys.readouterr()
    assert "star-piecewise" in captured.err and captured.out == ""


def test_cli_parse_error_exit(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert cli_main(["validate", str(path)]) == 1
    assert "parse error" in capsys.readouterr().err
