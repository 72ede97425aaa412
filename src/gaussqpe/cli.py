"""Command-line harness.

One invocation runs one mode and writes its artifacts into the output
directory: a config echo, CSV tables with floats at full round-trip
precision, and a JSON summary. The directory is made only once the
mode's results are in hand, so a run that exits 1 or 2 writes nothing.
Runs are deterministic in the master seed: per-run generators are
spawned from it by run index, so results are byte-identical for a given
(config, seed, runs), independent of thread count.

Exit codes: 0 success, 1 bad input or schema, 2 infeasible plan,
spectrum mismatch, a distribution too large to build or a round count
too large to hold, 3 bound violation in the laboratory grid.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import typing
from typing import Any, Sequence

import numpy as np

from .estimation import _MAX_ROUNDS, RoundBudgetTooLarge, run_gsee, run_qpe_baseline
from .planner import (
    GseePlan,
    PlanInfeasible,
    PlanInputs,
    flatten_record,
    plan_gsee,
    plan_qpe_baseline,
    plan_to_text,
)
from .simulator import (
    DenseHamiltonian,
    DistributionTooLarge,
    SpectrumPlanMismatch,
    SpectrumSpec,
    WindowTruncated,
    eigendecompose,
    mixed_distribution,
)

__all__ = ["main"]

_PLANNING_MODES = ("plan", "spectrum", "gsee", "sweep")
_DEFAULT_SEED = 1
_DEFAULT_ALPHAS = (0.0, 0.5, 1.0)
# EnergyEstimate.diagnostics written as estimates.csv columns, in order.
_DIAGNOSTICS = ("basket_fraction", "dark_fraction", "median_anchor")
# Every config key and the type of its value, checked in every mode: int,
# float (any JSON number), bool, str, a list of one of those, np.ndarray
# (nested lists of numbers), or a dict, a section of its own.
_CONFIG_KEYS = {
    "inputs": typing.get_type_hints(PlanInputs),
    "spectrum": {
        "path": str,
        "eigenphases": list[float],
        "overlaps_sq": list[float],
        "dense_hamiltonian": dict.fromkeys(
            ("matrix_real", "matrix_imag", "initial_real", "initial_imag"), np.ndarray
        ),
    },
    "qpe": {"epsilon": float, "delta": float},
    "bounds": {
        "mc": bool,
        "mc_rounds": int,
        "etas": list[float],
        "deltas": list[float],
        "gaps": list[float],
        "orders": list[int],
        "mu_centers": list[float],
        "eps_rel": float,
    },
    "seed": int,
    "runs": int,
    "threads": int,
    "alpha_list": list[float],
}
# A spectrum file holds a spectrum section, less a further path.
_SPECTRUM_FILE_KEYS = {k: v for k, v in _CONFIG_KEYS["spectrum"].items() if k != "path"}
# The values each leaf type takes and what an error calls them.
_KINDS = {
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    bool: (bool, "true or false"),
    str: (str, "a string"),
}
# The ways a spectrum section gives its spectrum, by their keys.
_SPECTRUM_SOURCES = (("path",), ("dense_hamiltonian",), ("eigenphases", "overlaps_sq"))


class _Parser(argparse.ArgumentParser):
    """Argument errors are input errors; keep them on exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    return str(value)


def _write_csv(path: str, rows: Sequence[dict]) -> None:
    """Rows whose keys are the columns, the same keys in the same order in
    every row; the header is the first row's keys."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0])
        for row in rows:
            writer.writerow([_fmt(value) for value in row.values()])


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _qpe_targets(config: dict[str, Any]) -> tuple[float, float]:
    node = config.get("qpe")
    if node is None:
        raise ValueError("config is missing the 'qpe' section")
    return float(node["epsilon"]), float(node["delta"])


def _check(value: Any, kind: Any, where: str, prefix: str | None = None) -> None:
    """Refuse a value that is not of ``kind`` (see ``_CONFIG_KEYS``),
    naming it ``where``. A section refuses a key it does not know, so a
    typo cannot fall back to a default, and names its keys ``prefix`` +
    key (by default ``where.key``)."""
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ValueError(f"{where} must be a JSON object")
        for key, item in value.items():
            if key not in kind:
                raise ValueError(f"unknown key {key!r} in {where}; known: {tuple(kind)}")
            _check(item, kind[key], (f"{where}." if prefix is None else prefix) + key)
        return
    if kind is np.ndarray:  # nested lists, any depth, of numbers
        if isinstance(value, list):
            for item in value:
                _check(item, kind, where)
            return
        kind, where = float, f"{where} entry"
    elif typing.get_origin(kind) is list:
        if not isinstance(value, list):
            raise ValueError(f"{where} must be a list, got {value!r}")
        for entry in value:
            _check(entry, *typing.get_args(kind), f"{where} entry")
        return
    accepted, phrase = _KINDS[kind]
    # bool is an int to Python, but true is not 1 here, nor 1 true.
    if not isinstance(value, accepted) or isinstance(value, bool) != (kind is bool):
        raise ValueError(f"{where} must be {phrase}, got {value!r}")


def _load_config(path: str | None) -> dict[str, Any]:
    if path is None:
        return {}
    with open(path) as fh:
        config = json.load(fh)
    _check(config, _CONFIG_KEYS, "config root", "")
    return config


def _spectrum_from_config(config: dict[str, Any]) -> SpectrumSpec:
    node = config.get("spectrum")
    if node is None:
        raise ValueError("config is missing the 'spectrum' section")
    # One source each: a second would be ignored. A file holds no path.
    for where in ("spectrum", "spectrum file"):
        given = ["/".join(keys) for keys in _SPECTRUM_SOURCES if any(k in node for k in keys)]
        if len(given) > 1:
            raise ValueError(f"{where} gives more than one source: {', '.join(given)}")
        if "path" not in node:
            break
        with open(node["path"]) as fh:
            node = json.load(fh)
        _check(node, _SPECTRUM_FILE_KEYS, "spectrum file", "spectrum.")
    if "dense_hamiltonian" in node:
        arrays = {
            key: np.array(value, dtype=np.float64)
            for key, value in node["dense_hamiltonian"].items()
        }
        real = arrays["matrix_real"]
        imag = arrays.get("matrix_imag", np.zeros_like(real))
        v_real = arrays["initial_real"]
        v_imag = arrays.get("initial_imag", np.zeros_like(v_real))
        ham = DenseHamiltonian(matrix=real + 1j * imag, initial=v_real + 1j * v_imag)
        return eigendecompose(ham)
    return SpectrumSpec.from_dict(node)


def _inputs_from_config(config: dict[str, Any], alpha: float) -> PlanInputs:
    node = config.get("inputs")
    if node is None:
        raise ValueError("config is missing the 'inputs' section")
    return PlanInputs(**{**node, "alpha": alpha})


def _alpha_values(args: argparse.Namespace, config: dict[str, Any]) -> list[float]:
    if args.alpha_list is not None:
        alphas = []
        for tok in args.alpha_list.split(","):
            if not tok.strip():
                continue
            try:
                value = float(tok)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(f"--alpha-list entries must be finite numbers, got {tok!r}")
            alphas.append(value)
    elif "alpha_list" in config:
        alphas = [float(a) for a in config["alpha_list"]]
    elif args.mode == "sweep":
        alphas = list(_DEFAULT_ALPHAS)
    else:
        alphas = [float(config.get("inputs", {}).get("alpha", 0.0))]
    if not alphas:
        raise ValueError("alpha list is empty; give at least one interpolation exponent")
    # summary.json keys each alpha by its printed form; two alike would merge.
    keys = [f"{a:g}" for a in alphas]
    for i, key in enumerate(keys):
        if key in keys[:i]:
            first = alphas[keys.index(key)]
            raise ValueError(f"alpha list entries {first!r} and {alphas[i]!r} both print as {key}")
    return alphas


def _open_out(args: argparse.Namespace, config: dict[str, Any]) -> str:
    """Create the output directory and echo the config into it; a mode
    calls this only once it holds every result it writes."""
    os.makedirs(args.out, exist_ok=True)
    # The thread count is left out: it must not change a single output byte.
    payload = {
        "mode": args.mode,
        "seed": args.seed,
        "runs": args.runs,
        "alpha_list": args.alpha_values,
        "config": config,
    }
    _write_json(os.path.join(args.out, "config-echo.json"), payload)
    return args.out


def _write_plans(out: str, plans: Sequence[GseePlan]) -> None:
    # Every plan flattens to the same sorted keys.
    _write_csv(os.path.join(out, "plans.csv"), [flatten_record(p.to_dict()) for p in plans])


def _cmd_plan(args, config) -> int:
    plans = [plan_gsee(inputs) for inputs in args.plan_inputs]
    text = plan_to_text(plans[0])
    if "qpe" in config:
        text += plan_to_text(plan_qpe_baseline(*_qpe_targets(config)))
    out = _open_out(args, config)
    _write_plans(out, plans)
    with open(os.path.join(out, "plan.txt"), "w") as fh:
        fh.write(text)
    for plan in plans:
        rp = plan.round_plan
        print(
            f"alpha={plan.inputs.alpha:g}: q={rp.q} M={plan.M} M0={rp.M0} "
            f"K={rp.K} sigma_bins={rp.sigma_bins:.4g} "
            f"total_samples={plan.total_samples}"
        )
    return 0


def _cmd_spectrum(args, config) -> int:
    spec = _spectrum_from_config(config)
    plan = plan_gsee(args.plan_inputs[0])
    dist = mixed_distribution(spec, plan)
    n = dist.n_bins
    rows = []
    for z in range(n):
        row = {"z": z, "P_mixed": float(dist.mixed[z])}
        for j in range(spec.J):
            row[f"P_{j}"] = float(dist.per_eigenstate[j, z])
        rows.append(row)
    out = _open_out(args, config)
    _write_csv(os.path.join(out, "spectrum.csv"), rows)
    _write_plans(out, [plan])
    print(f"wrote spectrum.csv with {n} bins for {spec.J} eigenphases")
    return 0


def _gsee_one_alpha(spec, inputs, runs, children, threads):
    plan = plan_gsee(inputs)
    dist = mixed_distribution(spec, plan)

    def one_run(i: int):
        # Keyword arguments: the traced benchmark reads ``plan`` by name.
        return run_gsee(plan=plan, dist=dist, seed=children[i])

    if threads == 1 or runs == 1:
        estimates = [one_run(i) for i in range(runs)]
    else:
        import concurrent.futures

        workers = threads or None
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            estimates = list(pool.map(one_run, range(runs)))
    return plan, estimates


def _cmd_gsee(args, config) -> int:
    spec = _spectrum_from_config(config)
    alphas = args.alpha_values
    master = np.random.SeedSequence(args.seed)
    children = master.spawn(len(alphas) * args.runs)

    rows = []
    plans = []
    summary_alphas = {}
    for a_idx, (alpha, inputs) in enumerate(zip(alphas, args.plan_inputs)):
        plan, estimates = _gsee_one_alpha(
            spec,
            inputs,
            args.runs,
            children[a_idx * args.runs : (a_idx + 1) * args.runs],
            args.threads,
        )
        plans.append(plan)
        theta0 = spec.ground_phase
        errs = []
        failures = 0
        for run_id, est in enumerate(estimates):
            err = est.mu_hat - theta0
            errs.append(abs(err))
            if abs(err) > plan.inputs.epsilon:
                failures += 1
            rows.append(
                {
                    "run_id": run_id,
                    "alpha": alpha,
                    "q": est.q,
                    "M": est.M_used,
                    "M0": plan.round_plan.M0,
                    "mu_hat": est.mu_hat,
                    "err": err,
                    "n_dark": est.n_dark,
                    "n_left": est.n_left,
                    **{name: est.diagnostics[name] for name in _DIAGNOSTICS},
                }
            )
        n = len(estimates)
        rate = failures / n
        half_width = 2.0 * math.sqrt(max(rate * (1.0 - rate), 0.0) / n) + 2.0 / n
        summary_alphas[f"{alpha:g}"] = {
            "runs": n,
            "failures": failures,
            "failure_rate": rate,
            "failure_band": [max(0.0, rate - half_width), min(1.0, rate + half_width)],
            "delta_fail_target": plan.inputs.delta_fail,
            "epsilon": plan.inputs.epsilon,
            "mean_abs_err": float(np.mean(errs)),
            "max_abs_err": float(np.max(errs)),
            "total_samples_per_run": plan.total_samples,
        }
        print(
            f"alpha={alpha:g}: {failures}/{n} failures, "
            f"max |err| = {max(errs):.3e} (target {plan.inputs.epsilon:g})"
        )

    out = _open_out(args, config)
    _write_csv(os.path.join(out, "estimates.csv"), rows)
    _write_plans(out, plans)
    _write_json(
        os.path.join(out, "summary.json"),
        {"mode": args.mode, "seed": args.seed, "alphas": summary_alphas},
    )
    return 0


def _cmd_qpe(args, config) -> int:
    # The baseline's guarantee assumes the register is fed the exact
    # ground eigenstate, so only the ground phase is taken from the
    # configured spectrum; overlaps are ignored here.
    ground = _spectrum_from_config(config).ground_phase
    spec = SpectrumSpec(eigenphases=(ground,), overlaps_sq=(1.0,))
    epsilon, delta = _qpe_targets(config)
    baseline = plan_qpe_baseline(epsilon, delta)
    master = np.random.SeedSequence(args.seed)
    children = master.spawn(args.runs)

    rows = []
    failures = 0
    for run_id in range(args.runs):
        est = run_qpe_baseline(spec, baseline, children[run_id])
        err = est.theta_hat - spec.ground_phase
        success = abs(err) <= epsilon
        if not success:
            failures += 1
        rows.append(
            {
                "run_id": run_id,
                "q": est.q,
                "n_samples": est.n_samples,
                "theta_hat": est.theta_hat,
                "err": err,
                "success": success,
            }
        )
    rate = failures / args.runs
    out = _open_out(args, config)
    _write_csv(os.path.join(out, "estimates.csv"), rows)
    _write_json(
        os.path.join(out, "summary.json"),
        {
            "mode": "qpe",
            "seed": args.seed,
            "runs": args.runs,
            "failures": failures,
            "failure_rate": rate,
            "delta_target": delta,
            "epsilon": epsilon,
            "q": baseline.q,
            "n_samples": baseline.n_samples,
        },
    )
    print(f"qpe baseline: {failures}/{args.runs} failures (target {delta:g})")
    return 0


def _cmd_bounds(args, config) -> int:
    from . import bounds as bounds_lab

    node = config.get("bounds", {})
    if "mc_rounds" in node:
        mc_rounds = node["mc_rounds"]
        if mc_rounds < 1:
            raise ValueError(f"bounds.mc_rounds must be at least 1, got {mc_rounds}")
        if mc_rounds > _MAX_ROUNDS:
            raise ValueError(f"bounds.mc_rounds must be at most {_MAX_ROUNDS}, got {mc_rounds}")
    # A key left out takes run_default_grid's default. JSON writes 1.0 as
    # 1, so a number is passed on as a float however it was spelled.
    kinds = _CONFIG_KEYS["bounds"]
    grid = {
        key: tuple(map(float, value)) if kinds[key] == list[float]
        else float(value) if kinds[key] is float
        else value
        for key, value in node.items()
    }
    report = bounds_lab.run_default_grid(**grid)
    rows = [
        {**row, "params": json.dumps(row["params"], sort_keys=True)} for row in report.to_rows()
    ]
    out = _open_out(args, config)
    _write_csv(os.path.join(out, "bounds.csv"), rows)
    _write_json(os.path.join(out, "summary.json"), report.summary())
    print(
        f"bound cases: {report.n_cases}, violations: {report.n_violations}, "
        f"worst margin 1e{report.worst_margin_log10:.1f}"
    )
    return 0 if report.all_hold else 3


_COMMANDS = {
    "plan": _cmd_plan,
    "spectrum": _cmd_spectrum,
    "gsee": _cmd_gsee,
    "qpe": _cmd_qpe,
    "bounds": _cmd_bounds,
    "sweep": _cmd_gsee,
}
# Refusals of a well-formed input (exit 2), by the label stderr gives them.
_REFUSALS = {
    PlanInfeasible: "infeasible",
    SpectrumPlanMismatch: "spectrum mismatch",
    DistributionTooLarge: "distribution too large",
    WindowTruncated: "window truncated",
    RoundBudgetTooLarge: "round budget too large",
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _Parser(
        prog="gaussqpe",
        description="Plan, simulate, and audit Gaussian-window phase estimation.",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--mode", choices=_COMMANDS, required=True)
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument("--runs", type=int, default=None, help="independent runs")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument(
        "--alpha-list", default=None, help="comma-separated interpolation exponents"
    )
    parser.add_argument(
        "--threads", type=int, default=None, help="worker threads (0 = auto)"
    )
    args = parser.parse_args(argv)

    try:
        config = _load_config(args.config)
        for name, default in (("seed", _DEFAULT_SEED), ("runs", 1), ("threads", 1)):
            if getattr(args, name) is None:
                setattr(args, name, config.get(name, default))
        if args.runs < 1:
            raise ValueError(f"runs must be positive, got {args.runs}")
        if args.threads < 0:
            raise ValueError(f"threads must be nonnegative (0 = auto), got {args.threads}")
        if args.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {args.seed}")
        args.alpha_values = _alpha_values(args, config)
        if args.mode in _PLANNING_MODES:
            args.plan_inputs = [_inputs_from_config(config, a) for a in args.alpha_values]
        # The estimator reports the basket mean, which only an m = 1 plan sizes.
        if args.mode in ("gsee", "sweep") and args.plan_inputs[0].m != 1:
            raise ValueError(
                f"inputs.m must be 1 in {args.mode} mode (the estimator reports "
                f"the basket mean), got {args.plan_inputs[0].m}"
            )
        return _COMMANDS[args.mode](args, config)
    except tuple(_REFUSALS) as exc:
        predicate = f" [{exc.predicate}]" if isinstance(exc, PlanInfeasible) else ""
        print(f"{_REFUSALS[type(exc)]}: {exc}{predicate}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
