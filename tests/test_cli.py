"""End-to-end command-line runs against temp configs and directories."""

import csv
import dataclasses
import importlib.util
import inspect
import json
import math
import os
import sys
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
from gaussqpe import bounds, cli, estimation
from gaussqpe.estimation import _MAX_ROUNDS
from gaussqpe.cli import main
from gaussqpe.planner import PlanInputs, flatten_record, plan_gsee, plan_sampling_round

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"

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
    # How often the ratio predicate halved each round budget.
    assert [int(r["round_plan.halvings"]) for r in rows] == [963, 1014, 1066]
    # The header is sorted, and every alpha's plan flattens to exactly it.
    header = list(rows[0])
    assert header == sorted(header)
    for alpha in (0.0, 0.5, 1.0):
        plan = plan_gsee(PlanInputs(**{**BASE_CONFIG["inputs"], "alpha": alpha}))
        assert list(flatten_record(plan.to_dict())) == header
    text = Path(out, "plan.txt").read_text()
    assert "q" in text and "M0" in text
    assert "round_plan.halvings = 963\n" in text
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
    assert list(rows[0]) == ["z", "P_mixed", "P_0", "P_1", "P_2"]
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
        "basket_fraction",
        "dark_fraction",
        "median_anchor",
    ]
    for row in rows:
        assert abs(float(row["err"])) <= 0.01
        draws = int(row["M"]) * int(row["M0"])
        assert 0.0 < float(row["basket_fraction"]) <= 1.0
        assert float(row["dark_fraction"]) * draws == pytest.approx(int(row["n_dark"]))
        assert float(row["median_anchor"]) == pytest.approx(-0.2 * 2 ** int(row["q"]), abs=50)
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
    assert list(rows[0]) == ["run_id", "q", "n_samples", "theta_hat", "err", "success"]
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
    # The columns are the BoundCase fields, in declaration order.
    assert list(rows[0]) == [
        "kind",
        "exact",
        "bound",
        "margin",
        "exact_log10",
        "bound_log10",
        "margin_log10",
        "preconditions_met",
        "holds",
        "params",
    ]
    assert all(r["holds"] == "True" for r in rows if r["preconditions_met"] == "True")
    params = [json.loads(row["params"]) for row in rows]
    assert {p["plan"] for p in params} == {"eta0.5_delta0.01_gap0.1_m1"}
    assert {p["mu_center"] for p in params if "mu_center" in p} == {0.0}
    summary = read_json(os.path.join(out, "summary.json"))
    assert summary["n_violations"] == 0
    assert "mc_round_failure" not in summary["kinds"]
    # The per-kind worst margins are the minima of the finite CSV column.
    worst = {}
    for row in rows:
        margin = float(row["margin_log10"])
        if math.isfinite(margin):
            worst[row["kind"]] = min(worst.get(row["kind"], math.inf), margin)
    assert summary["worst_margin_log10_by_kind"] == worst
    assert min(worst.values()) == summary["worst_margin_log10"]
    assert set(worst) <= set(summary["kinds"])
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
    "mode, section, key, value",
    [
        ("plan", None, "alpha_list", 0.5),
        ("bounds", "bounds", "etas", "0.5"),
        ("bounds", "bounds", "deltas", 0.01),
        ("bounds", "bounds", "gaps", 0.1),
        ("bounds", "bounds", "orders", 1),
        ("bounds", "bounds", "mu_centers", {"x": 0.0}),
        ("spectrum", "spectrum", "eigenphases", 0.1),
        ("gsee", "spectrum", "overlaps_sq", 1.0),
    ],
)
def test_lists_that_are_not_lists_are_named_errors(tmp_path, capsys, mode, section, key, value):
    config = json.loads(json.dumps(BASE_CONFIG))
    config["bounds"] = {"mc": False}
    node = config[section] if section else config
    node[key] = value
    rc, out = run(tmp_path, ["--mode", mode], config=config)
    assert rc == 1
    where = f"{section}.{key}" if section else key
    err = capsys.readouterr().err
    assert f"input error: {where} must be a list, got {value!r}" in err
    assert not os.path.exists(out)


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
        ("plan", "inputs", "eta", True, "inputs.eta must be a number"),
        ("bounds", "bounds", "mu_centers", ["0.25"], "bounds.mu_centers entry must be a number"),
        ("bounds", "bounds", "eps_rel", "0.001", "bounds.eps_rel must be a number"),
        ("qpe", "qpe", "epsilon", "0.01", "qpe.epsilon must be a number"),
        ("spectrum", "spectrum", "eigenphases", ["-0.2", "-0.05", "0.15"],
         "spectrum.eigenphases entry must be a number"),
        ("spectrum", "spectrum", "overlaps_sq", [True, False, False],
         "spectrum.overlaps_sq entry must be a number"),
        ("spectrum", "spectrum", "dense_hamiltonian",
         {"matrix_real": [["-0.2", 0], [0, "0.15"]], "initial_real": [1.0, 0.0]},
         "spectrum.dense_hamiltonian.matrix_real entry must be a number"),
        ("spectrum", "spectrum", "dense_hamiltonian",
         {"matrix_real": [[-0.2, 0], [0, 0.15]], "initial_real": [True, 0]},
         "spectrum.dense_hamiltonian.initial_real entry must be a number"),
        ("spectrum", "spectrum", "dense_hamiltonian",
         {"matrix_real": [[-0.2, 0], [0, 0.15]], "matrix_imag": [[0, False], [False, 0]],
          "initial_real": [1.0, 0.0]},
         "spectrum.dense_hamiltonian.matrix_imag entry must be a number"),
        ("gsee", None, "threads", -4, "threads must be nonnegative"),
        # A key that is a flag goes on the command line instead.
        ("gsee", None, "--threads", "-4", "threads must be nonnegative"),
        ("qpe", None, "--seed", "-1", "seed must be nonnegative, got -1"),
        ("gsee", "spectrum", "eigenphases", ["-0.2", -0.05, 0.15],
         "spectrum.eigenphases entry must be a number"),
        # open(0) read the spectrum from stdin; open(True) opened stdout.
        ("spectrum", "spectrum", "path", 0, "spectrum.path must be a string, got 0"),
        ("gsee", "spectrum", "path", True, "spectrum.path must be a string, got True"),
        # A value the mode does not read is checked too.
        ("plan", "spectrum", "path", 0, "spectrum.path must be a string, got 0"),
        ("gsee", "bounds", "mc", "no", "bounds.mc must be true or false, got 'no'"),
        ("bounds", "qpe", "epsilon", "0.01", "qpe.epsilon must be a number, got '0.01'"),
    ],
)
def test_config_values_are_not_coerced(tmp_path, capsys, mode, section, key, value, message):
    config = json.loads(json.dumps(BASE_CONFIG))
    argv = ["--mode", mode]
    if key.startswith("--"):
        argv += [key, value]
    else:
        node = config.setdefault(section, {}) if section else config
        if key == "dense_hamiltonian":
            node.clear()  # a spectrum section gives one source
        node[key] = value
    rc, out = run(tmp_path, argv, config=config)
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "argv, update, message",
    [
        (["--mode", "gsee", "--seed", "5"], {"seed": "x"}, "seed must be an integer, got 'x'"),
        (["--mode", "plan", "--threads", "1"], {"threads": 1.5},
         "threads must be an integer, got 1.5"),
        (["--mode", "plan", "--alpha-list", "0"], {"alpha_list": [0, "1"]},
         "alpha_list entry must be a number, got '1'"),
    ],
    ids=["seed", "threads", "alpha_list"],
)
def test_config_values_under_a_flag_are_checked(tmp_path, capsys, argv, update, message):
    rc, out = run(tmp_path, argv, config={**BASE_CONFIG, **update})
    assert rc == 1
    assert f"input error: {message}" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_config_table_covers_what_its_readers_take():
    grid = inspect.signature(run_default_grid).parameters
    assert set(cli._CONFIG_KEYS["bounds"]) == set(grid)
    assert all(p.default is not p.empty for p in grid.values())
    fields = [f.name for f in dataclasses.fields(PlanInputs)]
    assert list(cli._CONFIG_KEYS["inputs"]) == fields
    assert set(cli._CONFIG_KEYS["inputs"].values()) <= set(cli._KINDS)


GRID = {"deltas": [0.01], "gaps": [0.1], "mc_rounds": 50}


@pytest.mark.parametrize(
    "argv, floats, ints",
    [
        (["--mode", "plan"], {"alpha_list": [0.0, 1.0]}, {"alpha_list": [0, 1]}),
        (["--mode", "bounds"],
         {"bounds": {**GRID, "etas": [1.0], "mu_centers": [0.0]}},
         {"bounds": {**GRID, "etas": [1], "mu_centers": [0]}}),
    ],
    ids=["plan", "bounds"],
)
def test_integer_spellings_give_the_float_spellings_bytes(tmp_path, argv, floats, ints):
    outs = []
    for sub, spelling in (("floats", floats), ("ints", ints)):
        rc, out = run(tmp_path, argv, config={**BASE_CONFIG, **spelling}, sub=sub)
        assert rc == 0
        outs.append(out)
    # config-echo.json echoes each spelling as it was given.
    names = sorted(set(os.listdir(outs[0])) - {"config-echo.json"})
    assert names == sorted(set(os.listdir(outs[1])) - {"config-echo.json"})
    for name in names:
        assert Path(outs[0], name).read_bytes() == Path(outs[1], name).read_bytes(), name


@pytest.mark.parametrize(
    "mode, section, key, where",
    [
        ("plan", None, "rnus", "config root"),
        ("bounds", "bounds", "mc_round", "bounds"),
        ("qpe", "qpe", "epsilion", "qpe"),
        ("spectrum", "spectrum", "overlap_sq", "spectrum"),
        # A section the mode does not read is checked too.
        ("plan", "spectrum", "eigenphase", "spectrum"),
        ("spectrum", "dense_hamiltonian", "matrix_reel", "spectrum.dense_hamiltonian"),
        # inputs is checked by name in every mode, planning or not.
        ("plan", "inputs", "epsilonn", "inputs"),
        ("qpe", "inputs", "epsilonn", "inputs"),
        ("bounds", "inputs", "epsilonn", "inputs"),
    ],
)
def test_unknown_config_keys_are_named_errors(tmp_path, capsys, mode, section, key, where):
    config = json.loads(json.dumps(BASE_CONFIG))
    config["bounds"] = {"etas": [0.5], "deltas": [0.01], "gaps": [0.1], "mc": False}
    if section == "dense_hamiltonian":
        dense = {"matrix_real": [[-0.2, 0.0], [0.0, 0.1]], "initial_real": [1.0, 0.0]}
        config["spectrum"] = {"dense_hamiltonian": dense}
        node = config["spectrum"]["dense_hamiltonian"]
    else:
        node = config[section] if section else config
    node[key] = 7
    rc, out = run(tmp_path, ["--mode", mode], config=config)
    assert rc == 1
    err = capsys.readouterr().err
    assert f"unknown key '{key}' in {where}" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


def test_unknown_key_in_spectrum_file_is_named_error(tmp_path, capsys):
    spectrum = write_config(tmp_path, {**BASE_CONFIG["spectrum"], "phases": [0.1]}, "spec.json")
    config = {**BASE_CONFIG, "spectrum": {"path": spectrum}}
    rc, out = run(tmp_path, ["--mode", "spectrum"], config=config)
    assert rc == 1
    assert "unknown key 'phases' in spectrum file" in capsys.readouterr().err
    assert not os.path.exists(out)


DENSE = {"matrix_real": [[-0.3, 0.0], [0.0, 0.1]], "initial_real": [1.0, 0.0]}


@pytest.mark.parametrize(
    "spectrum, message",
    [
        ({**BASE_CONFIG["spectrum"], "dense_hamiltonian": DENSE},
         "spectrum gives more than one source: dense_hamiltonian, eigenphases/overlaps_sq"),
        ({"path": "spec.json", "eigenphases": [-0.2, -0.05, 0.15]},
         "spectrum gives more than one source: path, eigenphases/overlaps_sq"),
        ({"path": "spec.json", "dense_hamiltonian": DENSE},
         "spectrum gives more than one source: path, dense_hamiltonian"),
    ],
    ids=["dense_and_inline", "path_and_inline", "path_and_dense"],
)
def test_spectrum_with_two_sources_is_named_error(tmp_path, capsys, spectrum, message):
    # Before, the matrix's ground phase -0.3 won and the phases were ignored.
    write_config(tmp_path, BASE_CONFIG["spectrum"], "spec.json")
    if "path" in spectrum:
        spectrum = {**spectrum, "path": str(tmp_path / "spec.json")}
    rc, out = run(tmp_path, ["--mode", "gsee"], config={**BASE_CONFIG, "spectrum": spectrum})
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "held, message",
    [
        ({"dense_hamiltonian": DENSE},
         "spectrum file gives more than one source: dense_hamiltonian, eigenphases/overlaps_sq"),
        ({"path": "other.json"}, "unknown key 'path' in spectrum file"),
    ],
    ids=["dense_and_inline", "path"],
)
def test_spectrum_file_with_two_sources_is_named_error(tmp_path, capsys, held, message):
    spectrum = write_config(tmp_path, {**BASE_CONFIG["spectrum"], **held}, "spec.json")
    config = {**BASE_CONFIG, "spectrum": {"path": spectrum}}
    rc, out = run(tmp_path, ["--mode", "gsee"], config=config)
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


def test_config_sections_must_be_objects(tmp_path, capsys):
    rc, out = run(tmp_path, ["--mode", "bounds"], config={"bounds": [0.5]})
    assert rc == 1
    assert "bounds must be a JSON object" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_benchmark_workload_configs_are_accepted(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PATH)
    workloads = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS.values():
        for index in range(workload.cycle):
            config = workloads.make_campaign(workload, 1, index).config
            assert cli._load_config(write_config(tmp_path, config)) == config


@pytest.mark.parametrize("epsilon", [1e-300, 1e-160])
def test_tiny_epsilon_is_named_refusal(tmp_path, capsys, epsilon):
    # The Hoeffding count divides by an underflowed accuracy**2 (1e-300)
    # or comes out inf (1e-160); either way no finite round count exists.
    config = json.loads(json.dumps(BASE_CONFIG))
    config["inputs"]["epsilon"] = epsilon
    rc, out = run(tmp_path, ["--mode", "plan"], config=config)
    assert rc == 2
    err = capsys.readouterr().err
    assert "[round_count]" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


def test_mc_rounds_below_one_is_named_error(tmp_path, capsys):
    grid = {"etas": [0.5], "deltas": [0.01], "gaps": [0.1], "orders": [1], "mu_centers": [0.0]}
    with pytest.raises(ValueError, match="mc_rounds must be at least 1"):
        run_default_grid(**grid, mc_rounds=0)
    rc, out = run(tmp_path, ["--mode", "bounds"], config={"bounds": {**grid, "mc_rounds": 0}})
    assert rc == 1
    err = capsys.readouterr().err
    assert "bounds.mc_rounds must be at least 1" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


def test_mc_rounds_above_round_budget_is_named_error(tmp_path, capsys, monkeypatch):
    # Refused before any grid work, so no plan is built and nothing drawn.
    monkeypatch.setattr(bounds, "plan_sampling_round", None)
    grid = {"etas": [0.5], "deltas": [0.01], "gaps": [0.1], "orders": [1], "mu_centers": [0.0]}
    too_many = _MAX_ROUNDS + 1
    with pytest.raises(ValueError, match=f"mc_rounds must be at most {_MAX_ROUNDS}"):
        run_default_grid(**grid, mc_rounds=too_many)
    config = {"bounds": {**grid, "mc_rounds": too_many}}
    rc, out = run(tmp_path, ["--mode", "bounds"], config=config)
    assert rc == 1
    err = capsys.readouterr().err
    assert f"bounds.mc_rounds must be at most {_MAX_ROUNDS}, got {too_many}" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


def test_round_budget_too_large_exits_two(tmp_path, capsys, monkeypatch):
    # epsilon 1e-5 at alpha 0 plans 830M rounds, 33 GB of per-round arrays.
    def no_draw(*args):
        raise AssertionError("rounds drawn past the round budget")

    monkeypatch.setattr(estimation, "_draw_rounds", no_draw)
    config = json.loads(json.dumps(BASE_CONFIG))
    config["inputs"].update(epsilon=1e-5)
    rc, out = run(tmp_path, ["--mode", "gsee"], config=config)
    assert rc == 2
    err = capsys.readouterr().err
    assert "round budget too large: 829997878 rounds need 33199915120 bytes" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("axis", ["etas", "deltas", "gaps", "orders", "mu_centers"])
def test_empty_bound_grid_axis_is_named_error(tmp_path, capsys, monkeypatch, axis):
    # Refused before any grid work, so no plan is built.
    monkeypatch.setattr(bounds, "plan_sampling_round", None)
    grid = {"etas": [0.5], "deltas": [0.01], "gaps": [0.1], "orders": [1], "mu_centers": [0.0]}
    grid[axis] = []
    with pytest.raises(ValueError, match=f"bound grid axis {axis} is empty"):
        run_default_grid(**grid)
    rc, out = run(tmp_path, ["--mode", "bounds"], config={"bounds": grid})
    assert rc == 1
    err = capsys.readouterr().err
    assert f"bound grid axis {axis} is empty" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


def test_shadow_without_first_order_is_named_error(tmp_path, capsys, monkeypatch):
    # The shadow runs only m = 1 plans; refused before any grid work.
    monkeypatch.setattr(bounds, "plan_sampling_round", None)
    grid = {"etas": [0.5], "deltas": [0.01], "gaps": [0.1], "orders": [2], "mu_centers": [0.0]}
    message = "the Monte Carlo shadow runs at m = 1, but orders (2,) has no 1"
    with pytest.raises(ValueError, match=r"orders \(2,\) has no 1; add 1 to orders or set mc"):
        run_default_grid(**grid)
    rc, out = run(tmp_path, ["--mode", "bounds"], config={"bounds": grid})
    assert rc == 1
    err = capsys.readouterr().err
    assert message in err and "set mc to false" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


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
    assert not os.path.exists(out)


@pytest.mark.parametrize("gap", [0.6, 0.999999])
def test_gaps_past_half_a_turn_are_named_error(tmp_path, capsys, gap):
    # The planner sizes these gaps; the contaminant phase leaves (-1/2, 1/2).
    grid = {"etas": [0.5], "deltas": [0.01], "gaps": [gap], "orders": [1], "mu_centers": [0.0]}
    config = {"bounds": {**grid, "mc": False}}
    rc, out = run(tmp_path, ["--mode", "bounds"], config=config)
    assert rc == 1
    err = capsys.readouterr().err
    assert f"bound grid gap {gap!r} at mu_center 0.0 gives a two-state model" in err
    assert "eigenphases must lie strictly inside (-1/2, 1/2)" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("mc", [False, True])
@pytest.mark.parametrize("gap", [0.34, 0.48, 0.5])
def test_gaps_the_plan_refuses_are_named_error(tmp_path, capsys, monkeypatch, gap, mc):
    """Past about 1/3 the contaminant comes within half a working gap of
    the seam, which ``validate_for_plan`` refuses; the grid refuses it
    too, by name and before any case, whether or not the shadow runs."""

    def no_model(*args):
        raise AssertionError("a case was evaluated")

    monkeypatch.setattr(bounds, "_TwoStateModel", no_model)
    grid = {"etas": [0.25], "deltas": [0.01], "gaps": [gap], "orders": [1], "mu_centers": [0.0]}
    with pytest.raises(ValueError, match=f"bound grid gap {gap!r} at mu_center 0.0 gives"):
        run_default_grid(**grid, mc=mc)
    rc, out = run(tmp_path, ["--mode", "bounds"], config={"bounds": {**grid, "mc": mc}})
    assert rc == 1
    err = capsys.readouterr().err
    assert f"input error: bound grid gap {gap!r} at mu_center 0.0 gives" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


def test_oversized_distribution_exits_two(tmp_path, capsys):
    config = json.loads(json.dumps(BASE_CONFIG))
    config["inputs"].update(alpha=1.0, epsilon=1e-6)
    rc, out = run(tmp_path, ["--mode", "spectrum"], config=config)
    assert rc == 2
    err = capsys.readouterr().err
    assert "distribution too large" in err and "2**30 bins" in err
    assert not os.path.exists(out)


def test_truncated_window_exits_two(tmp_path, capsys, monkeypatch):
    # The planner never returns such a plan; hand one to the CLI.
    real_plan_gsee = cli.plan_gsee

    def narrow_plan(inputs):
        plan = real_plan_gsee(inputs)
        rp = plan.round_plan
        return dataclasses.replace(
            plan, round_plan=dataclasses.replace(rp, sigma_tilde=1.6 / rp.n_bins)
        )

    monkeypatch.setattr(cli, "plan_gsee", narrow_plan)
    rc, out = run(tmp_path, ["--mode", "spectrum"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "window truncated" in err and "above 1e-12" in err
    assert not os.path.exists(out)


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
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    assert "config-echo.json" in names
    for name in names:
        a = Path(outs[0], name).read_bytes()
        b = Path(outs[1], name).read_bytes()
        assert a == b, name


@pytest.mark.parametrize("mode", ["gsee", "sweep"])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_estimator_modes_refuse_higher_moment_orders(tmp_path, capsys, mode, m):
    config = json.loads(json.dumps(BASE_CONFIG))
    config["inputs"]["m"] = m
    rc, out = run(tmp_path, ["--mode", mode], config=config)
    assert rc == 1
    err = capsys.readouterr().err
    assert f"inputs.m must be 1 in {mode} mode" in err
    assert f"got {m}" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


def test_plan_mode_still_plans_higher_moment_orders(tmp_path):
    config = json.loads(json.dumps(BASE_CONFIG))
    config["inputs"]["m"] = 2
    rc, out = run(tmp_path, ["--mode", "plan"], config=config)
    assert rc == 0
    (row,) = read_csv(os.path.join(out, "plans.csv"))
    assert row["round_plan.m"] == "2"
    assert row["round_plan.M0"] == "4522"


@pytest.mark.parametrize("mode", ["plan", "spectrum", "gsee", "sweep"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_empty_alpha_list_is_named_error(tmp_path, capsys, mode, source):
    if source == "flag":
        rc, out = run(tmp_path, ["--mode", mode, "--alpha-list", ","])
    else:
        rc, out = run(tmp_path, ["--mode", mode], config={**BASE_CONFIG, "alpha_list": []})
    assert rc == 1
    err = capsys.readouterr().err
    assert "alpha list is empty" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("mode", ["plan", "gsee"])
@pytest.mark.parametrize(
    "alphas, message",
    [
        ("0.5,inf", "--alpha-list entries must be finite numbers, got 'inf'"),
        ("0.5,abc", "--alpha-list entries must be finite numbers, got 'abc'"),
        ("0.5,1.5", "alpha must lie in [0, 1], got 1.5"),
    ],
    ids=["inf", "abc", "range"],
)
def test_bad_plan_inputs_leave_out_untouched(tmp_path, capsys, mode, alphas, message):
    rc, out = run(tmp_path, ["--mode", mode, "--alpha-list", alphas])
    assert rc == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("mode", ["plan", "gsee", "sweep", "qpe", "bounds"])
@pytest.mark.parametrize(
    "alphas, message",
    [
        ("0.1234561,0.1234564", "entries 0.1234561 and 0.1234564 both print as 0.123456"),
        ("0.5,0.5", "entries 0.5 and 0.5 both print as 0.5"),
    ],
    ids=["alike", "equal"],
)
def test_alphas_that_print_alike_are_named_error(tmp_path, capsys, mode, alphas, message):
    # summary.json keys each alpha by its printed form: one would be lost.
    rc, out = run(tmp_path, ["--mode", mode, "--runs", "2", "--alpha-list", alphas])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


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
    # Above 0.01, and delta_fail / (4M) underflowed to 0: infeasible, not bad input.
    for inputs in ({"delta_fail": 0.9, "alpha": 1.0}, {"delta_fail": 1e-30, "epsilon": 1e-150}):
        config = json.loads(json.dumps(BASE_CONFIG))
        config["inputs"].update(inputs)
        rc, out = run(tmp_path, ["--mode", "plan"], config=config)
        assert rc == 2
        err = capsys.readouterr().err
        assert "infeasible" in err and "round_budget" in err
        assert not os.path.exists(out)


def test_spectrum_plan_mismatch_exits_two(tmp_path, capsys):
    config = json.loads(json.dumps(BASE_CONFIG))
    # Gap 0.05 turns sits below the planned working gap of 0.15.
    config["spectrum"] = {
        "eigenphases": [-0.2, -0.15],
        "overlaps_sq": [0.6, 0.4],
    }
    rc, out = run(tmp_path, ["--mode", "gsee"], config=config)
    assert rc == 2
    assert "spectrum mismatch" in capsys.readouterr().err
    assert not os.path.exists(out)


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
