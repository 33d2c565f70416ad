"""End-to-end command line behaviour: payloads, exit codes, determinism."""

import json
from importlib import resources

import numpy as np
import pytest

from ompkit import cli, gallery
from ompkit.cli import main
from ompkit.discrimination import solve
from ompkit.errors import ConsistencyError, ConvergenceFailure
from ompkit.fileio import load_channel, load_ensemble
from ompkit.omp_check import check_omp

from helpers import (
    BB84_FAMILY_END,
    LEFT_OUT_SIEVE,
    LEFT_OUT_STATES,
    NO_MEASUREMENT_COPIES,
    UNIDENTIFIED_FOURTH,
    random_ensemble,
)


def ensemble_file(tmp_path, name):
    text = resources.files("ompkit").joinpath(f"data/{name}.json").read_text()
    path = tmp_path / f"{name}.json"
    path.write_text(text)
    return str(path)


def channel_file(tmp_path, doc, name="channel.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def states_file(tmp_path, states, name):
    path = tmp_path / name
    path.write_text(json.dumps({"states": [{"q": q, "bloch": v} for q, v in states]}))
    return str(path)


def run_json(capsys, argv):
    code = main(argv + ["--json", "--no-timestamp"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_solve_bb84(tmp_path, capsys):
    code, rep = run_json(capsys, ["solve", ensemble_file(tmp_path, "bb84")])
    assert code == 0
    assert rep["tool"] == "ompkit"
    assert rep["command"] == "solve"
    assert set(rep["tolerances"]) == {"psd_tol", "rank_tol", "match_tol"}
    assert "timestamp" not in rep
    assert rep["p_guess"] == pytest.approx(0.5, abs=1e-10)
    assert rep["identified"] == [0, 1, 2, 3]
    assert rep["case_tags"] == ["projective_element"] * 4
    assert np.allclose(rep["povm_weights"], 0.5, atol=1e-9)


def test_solve_reports_given_tolerances(tmp_path, capsys):
    argv = ["solve", ensemble_file(tmp_path, "bb84"), "--tol", "1e-7", "--psd-tol", "1e-8"]
    code, rep = run_json(capsys, argv + ["--rank-tol", "1e-10"])
    assert code == 0
    assert rep["tolerances"] == {"psd_tol": 1e-8, "rank_tol": 1e-10, "match_tol": 1e-7}
    assert rep["p_guess"] == pytest.approx(0.5, abs=1e-10)


def test_solve_text_output(tmp_path, capsys):
    code = main(["solve", ensemble_file(tmp_path, "bb84"), "--no-timestamp"])
    out = capsys.readouterr().out
    assert code == 0
    assert "p_guess:" in out
    assert "state 0:" in out


def test_solve_submeasurement(tmp_path, capsys):
    path = ensemble_file(tmp_path, "bb84")
    code, rep = run_json(capsys, ["solve", path, "--measurement", "2,3"])
    assert code == 0
    m = rep["measurement"]
    assert m["index_set"] == [2, 3]
    assert np.allclose(m["weights"], [0, 0, 1, 1], atol=1e-9)
    assert m["value"] == pytest.approx(0.5, abs=1e-10)


def test_solve_timestamp_present_by_default(tmp_path, capsys):
    code = main(["solve", ensemble_file(tmp_path, "bb84"), "--json"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert "timestamp" in rep


def test_solve_unequal3_axes(tmp_path, capsys):
    code, rep = run_json(capsys, ["solve", ensemble_file(tmp_path, "unequal3")])
    assert code == 0
    assert rep["p_guess"] == pytest.approx(0.5846519612315915, abs=1e-10)
    axes = [
        [-0.796, 0.385, -0.466],
        [0.605, -0.713, 0.354],
        [0.304, 0.936, 0.178],
    ]
    assert np.allclose(rep["comp_states"], axes, atol=1e-3)


def test_check_depolarizing(tmp_path, capsys):
    epath = ensemble_file(tmp_path, "bb84")
    cpath = channel_file(tmp_path, {"kind": "depolarizing", "eta": 0.2})
    code, rep = run_json(capsys, ["check", epath, cpath])
    assert code == 0
    assert rep["is_omp"] is True
    assert rep["mode"] == "strong"
    assert rep["delta"] == pytest.approx(0.05, abs=1e-10)
    assert rep["p_guess_before"] - rep["p_guess_after"] == pytest.approx(
        0.05, abs=1e-10
    )


def test_check_undominated_left_out_state_exit_1(tmp_path, capsys):
    # a negative verdict, once a solver error (exit 4)
    epath = states_file(tmp_path, LEFT_OUT_STATES, "left_out.json")
    cpath = channel_file(tmp_path, {"kind": "depolarizing", "eta": 0.1})
    code, rep = run_json(capsys, ["check", epath, cpath])
    assert code == 1
    assert rep["is_omp"] is False


def test_family_undominated_member_exit_0(tmp_path, capsys):
    # the sieve drops the undominated member, once a solver error (exit 4)
    epath = states_file(tmp_path, LEFT_OUT_SIEVE, "left_out_sieve.json")
    argv = ["family", epath, "--samples", "24", "--seed", "0", "--box", "0.5"]
    code, rep = run_json(capsys, argv)
    assert code == 0
    assert rep["kept"] == 1


@pytest.mark.parametrize("box", ["2.0", "0.5"])
def test_family_without_measurement_exit_3(tmp_path, capsys, box):
    # once exit 0 with nothing kept at box 2.0, and exit 3 only once a
    # draw reached check_omp at box 0.5
    epath = states_file(tmp_path, NO_MEASUREMENT_COPIES, "copies.json")
    assert main(["family", epath, "--box", box, "--no-timestamp"]) == 3
    assert "invariant violation" in capsys.readouterr().err


def test_check_weak_unidentified_state_exit_3(tmp_path, capsys):
    epath = states_file(tmp_path, UNIDENTIFIED_FOURTH, "fourth.json")
    cpath = channel_file(tmp_path, {"kind": "depolarizing", "eta": 0.0})
    assert main(["check", epath, cpath, "--weak", "0,1,3"]) == 3
    assert "state 3 is not identified" in capsys.readouterr().err


def test_check_weak_out_of_range_index_exit_3(tmp_path, capsys):
    epath = ensemble_file(tmp_path, "bb84")
    cpath = channel_file(tmp_path, {"kind": "depolarizing", "eta": 0.1})
    assert main(["check", epath, cpath, "--weak", "0,9"]) == 3
    assert "state index 9 not in [0, 4)" in capsys.readouterr().err


def test_solve_measurement_out_of_range_index_exit_3(tmp_path, capsys):
    epath = ensemble_file(tmp_path, "bb84")
    assert main(["solve", epath, "--measurement", "0,9"]) == 3
    assert "state index 9 not in [0, 4)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "states",
    [UNIDENTIFIED_FOURTH, NO_MEASUREMENT_COPIES, "bb84", "sic", "random"],
)
def test_solve_json_identified_are_plain_ints(tmp_path, capsys, states):
    # the solver's identified states and tags reach json.dumps as is
    if states == "random":
        ens = random_ensemble(np.random.default_rng(4), 300)
        states = list(zip(ens.priors.tolist(), ens.blochs.tolist()))
    path = (
        ensemble_file(tmp_path, states)
        if isinstance(states, str)
        else states_file(tmp_path, states, "states.json")
    )
    code, rep = run_json(capsys, ["solve", path])
    assert code == 0
    sol = solve(load_ensemble(path))
    assert rep["identified"] == list(sol.identified)
    assert rep["case_tags"] == [tag.value for tag in sol.case_tags]


def test_check_family_end_member_exit_0(tmp_path, capsys):
    # a strictly CPTP member of bb84's family with degradation 6.6e-10 below
    # the min gap: a re-solve of the mapped states fails certification
    # (exit 4), so the positive verdict must not re-solve
    epath = ensemble_file(tmp_path, "bb84")
    cpath = channel_file(tmp_path, BB84_FAMILY_END)
    assert check_omp(load_ensemble(epath), load_channel(cpath)).is_omp
    assert main(["check", epath, cpath]) == 0


def test_check_rotation_strong_vs_weak(tmp_path, capsys):
    epath = ensemble_file(tmp_path, "bb84")
    cpath = channel_file(
        tmp_path, {"kind": "unitary", "axis": [0, 0, 1], "angle": np.pi / 7}
    )
    code, rep = run_json(capsys, ["check", epath, cpath])
    assert code == 1
    assert rep["is_omp"] is False
    code, rep = run_json(capsys, ["check", epath, cpath, "--weak", "0,1"])
    assert code == 0
    assert rep["mode"] == "weak"
    assert rep["delta"] == pytest.approx(0.0, abs=1e-10)


def test_check_rejects_non_cptp(tmp_path, capsys):
    epath = ensemble_file(tmp_path, "bb84")
    cpath = channel_file(
        tmp_path, {"D": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]}
    )
    code = main(["check", epath, cpath])
    err = capsys.readouterr().err
    assert code == 5
    assert "channel error" in err


def test_family_unital_mubs(tmp_path, capsys):
    epath = ensemble_file(tmp_path, "three_mubs")
    code, rep = run_json(
        capsys, ["family", epath, "--unital", "--samples", "150", "--seed", "3"]
    )
    assert code == 0
    assert rep["slice"] == "unital"
    assert rep["nullity"] == 1
    assert rep["kept"] > 0
    for s in rep["samples"]:
        d = np.array(s["D"])
        assert np.allclose(d, (1 - 6 * s["delta"]) * np.eye(3), atol=1e-8)
        assert np.allclose(s["t"], 0.0, atol=1e-10)


def test_family_fixed_delta(tmp_path, capsys):
    epath = ensemble_file(tmp_path, "bb84")
    code, rep = run_json(
        capsys, ["family", epath, "--fixed-delta", "0.05", "--samples", "10"]
    )
    assert code == 0
    assert rep["slice"] == "delta"
    assert rep["nullity"] == 6
    assert rep["particular"][12] == pytest.approx(0.05, abs=1e-10)
    for s in rep["samples"]:
        assert s["delta"] == pytest.approx(0.05, abs=1e-9)


def test_family_flags_do_not_leak_between_calls(tmp_path, capsys):
    # the parser is built once per process; each call parses afresh
    epath = ensemble_file(tmp_path, "bb84")
    code, rep = run_json(capsys, ["family", epath, "--unital", "--samples", "5"])
    assert code == 0
    assert rep["slice"] == "unital"
    code, rep = run_json(capsys, ["family", epath, "--samples", "5"])
    assert code == 0
    assert rep["slice"] == "full"


def test_examples_pass_and_corrupt(tmp_path, capsys, monkeypatch):
    code = main(["examples", "--no-timestamp"])
    out = capsys.readouterr().out
    assert code == 0
    assert "5/5 PASS" in out
    monkeypatch.setattr(gallery, "_UNEQUAL_P_GUESS", gallery._UNEQUAL_P_GUESS + 1e-3)
    code = main(["examples", "--no-timestamp"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_parse_errors_exit_2(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["solve", str(bad)]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"states": [], "comment": "hi"}))
    assert main(["solve", str(unknown)]) == 2
    err = capsys.readouterr().err
    assert "input error" in err
    # json reads NaN and Infinity: a NaN prior or Bloch component once
    # failed to converge in the SVD, a NaN D entry or an infinite angle in
    # eigvalsh, each a traceback (exit 1, the code of a negative verdict)
    nan = float("nan")
    for where, states in (
        ("states[0].q", [(nan, [0, 0, 1]), (0.5, [0, 0, -1])]),
        ("states[1].bloch", [(0.5, [0, 0, 1]), (0.5, [0, nan, -1])]),
    ):
        assert main(["solve", states_file(tmp_path, states, "nan.json")]) == 2
        assert f"{where}: expected a finite number, got nan" in capsys.readouterr().err
    epath = ensemble_file(tmp_path, "bb84")
    for where, doc in (
        ("channel.D[1]", {"D": [[1, 0, 0], [0, nan, 0], [0, 0, 1]]}),
        ("channel.angle", {"kind": "unitary", "axis": [0, 0, 1], "angle": float("inf")}),
    ):
        assert main(["check", epath, channel_file(tmp_path, doc)]) == 2
        assert f"{where}: expected a finite number" in capsys.readouterr().err
    # an integer of 5,000 digits once escaped as a ValueError from json
    huge = tmp_path / "huge.json"
    huge.write_text('{"states": [{"q": ' + "1" * 5000 + ', "bloch": [0, 0, 1]}]}')
    assert main(["solve", str(huge)]) == 2
    assert "input error" in capsys.readouterr().err


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["solve"]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--tol", "0"], "argument --tol: expected a number > 0, got '0'"),
        (["solve", "--psd-tol", "-1"], "argument --psd-tol: expected a number > 0"),
        (["solve", "--tol", "nan"], "argument --tol: expected a finite number, got 'nan'"),
        (["solve", "--rank-tol", "inf"], "argument --rank-tol: expected a finite number"),
        (["solve", "--tol", "tiny"], "argument --tol: expected a number, got 'tiny'"),
        (["family", "--box", "nan"], "argument --box: expected a finite number"),
        (["family", "--box", "inf"], "argument --box: expected a finite number"),
        (["family", "--fixed-delta", "nan", "--json"], "argument --fixed-delta: expected a finite"),
        (["solve", "--measurement", "0,x"], "expected comma-separated integers, got '0,x'"),
        (["solve", "--measurement", ","], "argument --measurement: index list is empty"),
        (["family", "--seed", "-1"], "argument --seed: expected a non-negative integer"),
        (["family", "--box", "-1"], "argument --box: expected a number >= 0, got '-1'"),
        (["family", "--samples", "-3"], "argument --samples: expected a non-negative integer"),
        (["family", "--samples", "many"], "argument --samples: expected a non-negative integer"),
    ],
    ids=["tol-zero", "psd-tol-negative", "tol-nan", "rank-tol-inf", "tol-word", "box-nan",
         "box-inf", "fixed-delta-nan", "measurement-word", "measurement-empty", "seed-negative",
         "box-negative", "samples-negative", "samples-word"],
)
def test_malformed_flag_values_exit_2(tmp_path, capsys, argv, message):
    # a bad tolerance once escaped main as a ValueError traceback (exit 1 from
    # the console script), a nan or inf box as an OverflowError, a negative
    # box or seed as a ValueError of the random generator, and a nan
    # degradation reached the JSON report; a negative sample count exited 0
    # with "kept 0 of -3"
    argv = [argv[0], ensemble_file(tmp_path, "bb84")] + argv[1:]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_overflowing_box_exits_3(tmp_path, capsys):
    # a finite box whose width [-box, box] overflows is the library's
    # BadParameter, no longer an OverflowError traceback
    assert main(["family", ensemble_file(tmp_path, "bb84"), "--box", "1e308"]) == 3
    assert "invariant violation: box must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "target, error, argv",
    [
        ("solve", ConvergenceFailure, ["solve"]),
        ("check_omp", ConsistencyError, ["check"]),
    ],
    ids=["solve", "check"],
)
def test_solver_errors_exit_4(tmp_path, capsys, monkeypatch, target, error, argv):
    def fail(*args, **kwargs):
        raise error("forced for the test")

    monkeypatch.setattr(cli, target, fail)
    argv = argv + [ensemble_file(tmp_path, "bb84")]
    if target == "check_omp":
        argv.append(channel_file(tmp_path, {"kind": "depolarizing", "eta": 0.2}))
    assert main(argv) == 4
    assert "ompkit: solver error: forced for the test" in capsys.readouterr().err


def test_check_text_output(tmp_path, capsys):
    epath = ensemble_file(tmp_path, "bb84")
    cpath = channel_file(tmp_path, {"kind": "depolarizing", "eta": 0.2})
    assert main(["check", epath, cpath, "--no-timestamp"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "verdict: preserves the optimal measurement (strong)"
    assert lines[3:5] == ["degradation within bounds: True", "index set: [0, 1, 2, 3]"]


def test_family_text_output(tmp_path, capsys):
    argv = ["family", ensemble_file(tmp_path, "bb84"), "--samples", "40", "--box", "0.5"]
    assert main(argv + ["--no-timestamp"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["index set: [0, 1, 2, 3]", "nullity: 7"]
    assert "sieve: kept 11 of 40 (seed 0, box 0.5, slice full)" in lines
    assert sum(line.startswith("  delta=") for line in lines) == 5
    assert lines[-1] == "  ... 6 more in the JSON report"


def test_solve_measurement_text_output(tmp_path, capsys):
    argv = ["solve", ensemble_file(tmp_path, "bb84"), "--measurement", "2,3"]
    assert main(argv + ["--no-timestamp"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("measurement on [2, 3]: weights=[0.0, 0.0, ")
    assert " value=" in last


def test_invariant_errors_exit_3(tmp_path, capsys):
    bad_priors = tmp_path / "bad_priors.json"
    bad_priors.write_text(
        json.dumps(
            {
                "states": [
                    {"q": 0.9, "bloch": [0, 0, 1]},
                    {"q": 0.3, "bloch": [1, 0, 0]},
                ]
            }
        )
    )
    assert main(["solve", str(bad_priors)]) == 3
    epath = ensemble_file(tmp_path, "bb84")
    assert main(["solve", epath, "--measurement", "0,2"]) == 3
    err = capsys.readouterr().err
    assert "invariant violation" in err


def test_solve_repeated_measurement_index_exit_3(tmp_path, capsys):
    # the index set (0, 0, 1) once reported an incomplete measurement
    epath = ensemble_file(tmp_path, "bb84")
    assert main(["solve", epath, "--measurement", "0,0,1"]) == 3
    err = capsys.readouterr().err
    assert "invariant violation" in err
    assert "more than once" in err


def test_check_weak_repeated_index_exit_3(tmp_path, capsys):
    # the same index set once gave a positive weak verdict
    epath = ensemble_file(tmp_path, "bb84")
    cpath = channel_file(tmp_path, {"kind": "depolarizing", "eta": 0.2})
    assert main(["check", epath, cpath, "--weak", "0,0,1"]) == 3
    err = capsys.readouterr().err
    assert "invariant violation" in err
    assert "more than once" in err


def test_family_determinism(tmp_path, capsys):
    epath = ensemble_file(tmp_path, "three_mubs")
    argv = ["family", epath, "--samples", "60", "--seed", "5", "--json", "--no-timestamp"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_seed_sources(tmp_path, capsys, monkeypatch):
    epath = ensemble_file(tmp_path, "three_mubs")
    monkeypatch.setenv("OMPKIT_SEED", "42")
    code, rep = run_json(capsys, ["family", epath, "--samples", "5"])
    assert code == 0
    assert rep["seed"] == 42
    # an explicit flag wins over the environment
    code, rep = run_json(capsys, ["family", epath, "--samples", "5", "--seed", "7"])
    assert rep["seed"] == 7
    monkeypatch.delenv("OMPKIT_SEED")
    code, rep = run_json(capsys, ["family", epath, "--samples", "5"])
    assert rep["seed"] == 0
    # the environment takes the flag's values only: anything else is an
    # input error naming the variable, not a ValueError traceback
    for bad in ("abc", "-5", ""):
        monkeypatch.setenv("OMPKIT_SEED", bad)
        assert main(["family", epath, "--samples", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"OMPKIT_SEED: expected a non-negative integer, got {bad!r}" in captured.err


def test_output_file(tmp_path, capsys):
    epath = ensemble_file(tmp_path, "bb84")
    target = tmp_path / "report.json"
    code = main(
        ["solve", epath, "--json", "--no-timestamp", "--output", str(target)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    rep = json.loads(target.read_text())
    assert rep["p_guess"] == pytest.approx(0.5, abs=1e-10)


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "ompkit" in capsys.readouterr().out


def test_floats_round_trip_exactly(tmp_path, capsys):
    code, rep = run_json(capsys, ["solve", ensemble_file(tmp_path, "unequal3")])
    assert code == 0

    def walk(node):
        if isinstance(node, float):
            assert float(repr(node)) == node
        elif isinstance(node, list):
            for item in node:
                walk(item)
        elif isinstance(node, dict):
            for item in node.values():
                walk(item)

    walk(rep)
    # and the parsed payload reproduces the in-process solution bit for bit
    from ompkit.discrimination import solve
    from ompkit.fileio import bundled_ensemble

    sol = solve(bundled_ensemble("unequal3"))
    assert rep["p_guess"] == sol.p_guess
    assert rep["gaps"] == list(sol.gaps)
