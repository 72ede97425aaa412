"""End-to-end command-line runs against temp configs and directories."""

import csv
import json
import math
import os
from pathlib import Path

import pytest

from gaussqpe.bounds import (
    DEFAULT_DELTAS,
    DEFAULT_EPS_REL,
    DEFAULT_ETAS,
    DEFAULT_GAPS,
    DEFAULT_MU_CENTERS,
    DEFAULT_ORDERS,
    evaluate_plan_cases,
    run_default_grid,
)
from gaussqpe.cli import main
from gaussqpe.planner import plan_sampling_round

BASE_CONFIG = {
    "inputs": {
        "delta_fail": 0.1,
        "eta": 0.5,
        "Delta_true": 0.15,
        "epsilon": 0.01,
        "alpha": 0.0,
    },
    "spectrum": {
        "eigenphases": [-0.2, -0.05, 0.15],
        "overlaps_sq": [0.5, 0.3, 0.2],
    },
    "qpe": {"epsilon": 0.01, "delta": 0.01},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def run(tmp_path, argv_extra, config=BASE_CONFIG, sub="out"):
    cfg = write_config(tmp_path, config)
    out = str(tmp_path / sub)
    rc = main(["--config", cfg, "--out", out, *argv_extra])
    return rc, out


def test_plan_mode_writes_tables(tmp_path, capsys):
    rc, out = run(tmp_path, ["--mode", "plan", "--alpha-list", "0,0.5,1"])
    assert rc == 0
    rows = read_csv(os.path.join(out, "plans.csv"))
    assert len(rows) == 3
    assert [float(r["alpha"]) for r in rows] == [0.0, 0.5, 1.0]
    qs = [int(r["round_plan.q"]) for r in rows]
    assert qs == sorted(qs)
    text = Path(out, "plan.txt").read_text()
    assert "q" in text and "M0" in text
    echo = read_json(os.path.join(out, "config-echo.json"))
    assert echo["mode"] == "plan"
    assert echo["alpha_list"] == [0.0, 0.5, 1.0]
    assert "alpha=1" in capsys.readouterr().out


def test_spectrum_mode_distribution_table(tmp_path):
    rc, out = run(tmp_path, ["--mode", "spectrum"])
    assert rc == 0
    rows = read_csv(os.path.join(out, "spectrum.csv"))
    plans = read_csv(os.path.join(out, "plans.csv"))
    assert len(rows) == 1 << int(plans[0]["round_plan.q"])
    assert set(rows[0]) == {"z", "P_mixed", "P_0", "P_1", "P_2"}
    total = sum(float(r["P_mixed"]) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_gsee_mode_estimates_and_summary(tmp_path):
    rc, out = run(tmp_path, ["--mode", "gsee", "--runs", "3", "--seed", "7"])
    assert rc == 0
    rows = read_csv(os.path.join(out, "estimates.csv"))
    assert len(rows) == 3
    assert list(rows[0]) == [
        "run_id",
        "alpha",
        "q",
        "M",
        "M0",
        "mu_hat",
        "err",
        "n_dark",
        "n_left",
    ]
    for row in rows:
        assert abs(float(row["err"])) <= 0.01
    summary = read_json(os.path.join(out, "summary.json"))
    assert summary["mode"] == "gsee"
    assert summary["alphas"]["0"]["failures"] == 0


def test_sweep_mode_covers_alpha_grid(tmp_path):
    rc, out = run(tmp_path, ["--mode", "sweep", "--runs", "1"])
    assert rc == 0
    rows = read_csv(os.path.join(out, "estimates.csv"))
    assert [float(r["alpha"]) for r in rows] == [0.0, 0.5, 1.0]
    summary = read_json(os.path.join(out, "summary.json"))
    assert summary["mode"] == "sweep"
    assert set(summary["alphas"]) == {"0", "0.5", "1"}


def test_qpe_mode_baseline(tmp_path):
    rc, out = run(tmp_path, ["--mode", "qpe", "--runs", "20", "--seed", "3"])
    assert rc == 0
    rows = read_csv(os.path.join(out, "estimates.csv"))
    assert len(rows) == 20
    assert {r["success"] for r in rows} <= {"True", "False"}
    summary = read_json(os.path.join(out, "summary.json"))
    assert summary["runs"] == 20
    assert summary["failures"] <= 1


def test_bounds_mode_reduced_grid(tmp_path):
    config = dict(BASE_CONFIG)
    config["bounds"] = {
        "etas": [0.5],
        "deltas": [0.01],
        "gaps": [0.1],
        "orders": [1],
        "mu_centers": [0.0],
        "mc": False,
    }
    rc, out = run(tmp_path, ["--mode", "bounds"], config=config)
    assert rc == 0
    rows = read_csv(os.path.join(out, "bounds.csv"))
    assert all(r["holds"] == "True" for r in rows if r["preconditions_met"] == "True")
    params = [json.loads(row["params"]) for row in rows]
    assert {p["plan"] for p in params} == {"eta0.5_delta0.01_gap0.1_m1"}
    assert {p["mu_center"] for p in params if "mu_center" in p} == {0.0}
    summary = read_json(os.path.join(out, "summary.json"))
    assert summary["n_violations"] == 0
    assert "mc_round_failure" not in summary["kinds"]
    # The default grid has at least one case per (plan, center) pair.
    default_pairs = math.prod(
        len(axis)
        for axis in (
            DEFAULT_ETAS,
            DEFAULT_DELTAS,
            DEFAULT_GAPS,
            DEFAULT_ORDERS,
            DEFAULT_MU_CENTERS,
        )
    )
    assert summary["n_cases"] == len(rows) < default_pairs


@pytest.mark.parametrize(
    "mode, section, key, value, message",
    [
        ("plan", "inputs", "m", 1.9, "m must be an integer"),
        ("plan", "inputs", "m", True, "m must be an integer"),
        ("plan", None, "runs", 2.7, "runs must be an integer"),
        ("plan", None, "seed", "1", "seed must be an integer"),
        ("plan", None, "threads", False, "threads must be an integer"),
        ("bounds", "bounds", "mc", "false", "bounds.mc must be true or false"),
        ("bounds", "bounds", "orders", [1.0], "bounds.orders entry must be an integer"),
        ("bounds", "bounds", "mc_rounds", 20.5, "bounds.mc_rounds must be an integer"),
        ("plan", None, "alpha_list", ["0.5"], "alpha_list entry must be a number"),
        ("plan", None, "alpha_list", [True], "alpha_list entry must be a number"),
        ("plan", "inputs", "alpha", "0.5", "inputs.alpha must be a number"),
        ("plan", "inputs", "eta", True, "eta must be a real number"),
        ("bounds", "bounds", "mu_centers", ["0.25"], "bounds.mu_centers entry must be a number"),
        ("bounds", "bounds", "eps_rel", "0.001", "bounds.eps_rel must be a number"),
        ("qpe", "qpe", "epsilon", "0.01", "qpe.epsilon must be a number"),
    ],
)
def test_config_values_are_not_coerced(tmp_path, capsys, mode, section, key, value, message):
    config = json.loads(json.dumps(BASE_CONFIG))
    node = config.setdefault(section, {}) if section else config
    node[key] = value
    rc, _ = run(tmp_path, ["--mode", mode], config=config)
    assert rc == 1
    assert message in capsys.readouterr().err


def test_mc_rounds_below_one_is_named_error(tmp_path, capsys):
    grid = {"etas": [0.5], "deltas": [0.01], "gaps": [0.1], "orders": [1], "mu_centers": [0.0]}
    with pytest.raises(ValueError, match="mc_rounds must be at least 1"):
        run_default_grid(**grid, mc_rounds=0)
    rc, out = run(tmp_path, ["--mode", "bounds"], config={"bounds": {**grid, "mc_rounds": 0}})
    assert rc == 1
    err = capsys.readouterr().err
    assert "bounds.mc_rounds must be at least 1" in err
    assert "Traceback" not in err
    assert not os.path.exists(os.path.join(out, "bounds.csv"))


@pytest.mark.parametrize("center", [float("nan"), 3.0, 0.5, -0.75])
def test_mu_centers_outside_central_bin_are_named_error(tmp_path, capsys, center):
    grid = {"etas": [0.5], "deltas": [0.01], "gaps": [0.1], "orders": [1]}
    message = r"mu_centers entries must be finite and in \[-1/2, 1/2\)"
    plan = plan_sampling_round(0.01, 0.5, 0.1, 1, DEFAULT_EPS_REL)
    with pytest.raises(ValueError, match=message):
        evaluate_plan_cases(plan, (0.0, center))
    with pytest.raises(ValueError, match=message):
        run_default_grid(**grid, mu_centers=(center,), mc=False)
    config = {"bounds": {**grid, "mu_centers": [center], "mc": False}}
    rc, out = run(tmp_path, ["--mode", "bounds"], config=config)
    assert rc == 1
    err = capsys.readouterr().err
    assert "mu_centers entries must be finite" in err
    assert "Traceback" not in err
    assert not os.path.exists(os.path.join(out, "bounds.csv"))


def test_oversized_distribution_exits_two(tmp_path, capsys):
    config = json.loads(json.dumps(BASE_CONFIG))
    config["inputs"].update(alpha=1.0, epsilon=1e-6)
    rc, out = run(tmp_path, ["--mode", "spectrum"], config=config)
    assert rc == 2
    err = capsys.readouterr().err
    assert "distribution too large" in err and "2**30 bins" in err
    assert not os.path.exists(os.path.join(out, "spectrum.csv"))


def test_gsee_thread_count_does_not_change_bytes(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    outs = []
    for threads, sub in (("1", "a"), ("4", "b")):
        out = str(tmp_path / sub)
        rc = main(
            [
                "--config",
                cfg,
                "--out",
                out,
                "--mode",
                "gsee",
                "--runs",
                "4",
                "--seed",
                "11",
                "--threads",
                threads,
            ]
        )
        assert rc == 0
        outs.append(out)
    for name in ("estimates.csv", "plans.csv", "summary.json"):
        a = Path(outs[0], name).read_bytes()
        b = Path(outs[1], name).read_bytes()
        assert a == b, name


def test_missing_config_is_input_error(tmp_path, capsys):
    rc = main(["--mode", "gsee", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "input error" in capsys.readouterr().err


def test_nonexistent_config_path(tmp_path, capsys):
    rc = main(
        ["--config", str(tmp_path / "nope.json"), "--mode", "plan", "--out", str(tmp_path / "o")]
    )
    assert rc == 1


def test_malformed_json_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc = main(["--config", str(path), "--mode", "plan", "--out", str(tmp_path / "o")])
    assert rc == 1


def test_bad_mode_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--mode", "warp", "--out", str(tmp_path / "o")])
    assert exc.value.code == 1


def test_infeasible_budget_exits_two(tmp_path, capsys):
    config = json.loads(json.dumps(BASE_CONFIG))
    config["inputs"]["delta_fail"] = 0.9
    config["inputs"]["alpha"] = 1.0
    rc, _ = run(tmp_path, ["--mode", "plan"], config=config)
    assert rc == 2
    err = capsys.readouterr().err
    assert "infeasible" in err and "round_budget" in err


def test_spectrum_plan_mismatch_exits_two(tmp_path, capsys):
    config = json.loads(json.dumps(BASE_CONFIG))
    # Gap 0.05 turns sits below the planned working gap of 0.15.
    config["spectrum"] = {
        "eigenphases": [-0.2, -0.15],
        "overlaps_sq": [0.6, 0.4],
    }
    rc, _ = run(tmp_path, ["--mode", "gsee"], config=config)
    assert rc == 2
    assert "spectrum mismatch" in capsys.readouterr().err


def test_dense_hamiltonian_config(tmp_path):
    config = json.loads(json.dumps(BASE_CONFIG))
    config["spectrum"] = {
        "dense_hamiltonian": {
            "matrix_real": [[-0.2, 0.0], [0.0, 0.1]],
            "initial_real": [0.7071067811865476, 0.7071067811865476],
        }
    }
    rc, out = run(tmp_path, ["--mode", "spectrum"], config=config)
    assert rc == 0
    rows = read_csv(os.path.join(out, "spectrum.csv"))
    assert set(rows[0]) == {"z", "P_mixed", "P_0", "P_1"}


def test_runs_must_be_positive(tmp_path, capsys):
    rc, _ = run(tmp_path, ["--mode", "gsee", "--runs", "0"])
    assert rc == 1
    assert "runs must be positive" in capsys.readouterr().err
