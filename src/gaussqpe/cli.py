"""Command-line harness.

One invocation runs one mode and writes its artifacts into the output
directory: a config echo, CSV tables with floats at full round-trip
precision, and a JSON summary. Runs are deterministic in the master
seed: per-run generators are spawned from it by run index, so results
are byte-identical for a given (config, seed, runs), independent of
thread count.

Exit codes: 0 success, 1 bad input or schema, 2 infeasible plan,
spectrum mismatch or a distribution too large to build, 3 bound
violation in the laboratory grid.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import math
import os
import sys
from typing import Any, Sequence

import numpy as np

from . import bounds as bounds_lab
from .estimation import run_gsee, run_qpe_baseline
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
    eigendecompose,
    mixed_distribution,
)

__all__ = ["main"]

_MODES = ("plan", "spectrum", "gsee", "qpe", "bounds", "sweep")
_DEFAULT_SEED = 1
_DEFAULT_ALPHAS = (0.0, 0.5, 1.0)


class _Parser(argparse.ArgumentParser):
    """Argument errors are input errors; keep them on exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    return str(value)


def _write_csv(path: str, fieldnames: Sequence[str], rows: Sequence[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row.get(name)) for name in fieldnames])


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _strict_int(value: Any, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _strict_float(value: Any, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _qpe_targets(config: dict[str, Any]) -> tuple[float, float]:
    node = config.get("qpe")
    if node is None:
        raise ValueError("config is missing the 'qpe' section")
    return (
        _strict_float(node["epsilon"], "qpe.epsilon"),
        _strict_float(node["delta"], "qpe.delta"),
    )


def _load_config(path: str | None) -> dict[str, Any]:
    if path is None:
        return {}
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError("config root must be a JSON object")
    return config


def _spectrum_from_config(config: dict[str, Any]) -> SpectrumSpec:
    node = config.get("spectrum")
    if node is None:
        raise ValueError("config is missing the 'spectrum' section")
    if "path" in node:
        with open(node["path"]) as fh:
            node = json.load(fh)
    if "dense_hamiltonian" in node:
        dense = node["dense_hamiltonian"]
        real = np.array(dense["matrix_real"], dtype=np.float64)
        imag = np.array(dense.get("matrix_imag", np.zeros_like(real)), dtype=np.float64)
        v_real = np.array(dense["initial_real"], dtype=np.float64)
        v_imag = np.array(
            dense.get("initial_imag", np.zeros_like(v_real)), dtype=np.float64
        )
        ham = DenseHamiltonian(matrix=real + 1j * imag, initial=v_real + 1j * v_imag)
        return eigendecompose(ham)
    return SpectrumSpec.from_dict(node)


def _inputs_from_config(config: dict[str, Any], alpha: float | None = None) -> PlanInputs:
    node = config.get("inputs")
    if node is None:
        raise ValueError("config is missing the 'inputs' section")
    kwargs = dict(node)
    if alpha is not None:
        kwargs["alpha"] = alpha
    return PlanInputs(**kwargs)


def _echo_config(out_dir: str, args: argparse.Namespace, config: dict[str, Any]) -> None:
    payload = {
        "mode": args.mode,
        "seed": args.seed,
        "runs": args.runs,
        "alpha_list": args.alpha_values,
        "threads": args.threads,
        "config": config,
    }
    _write_json(os.path.join(out_dir, "config-echo.json"), payload)


def _plan_rows(plans: Sequence[GseePlan]) -> tuple[list[str], list[dict]]:
    rows = [flatten_record(plan.to_dict()) for plan in plans]
    names = sorted({name for row in rows for name in row})
    return names, rows


def _cmd_plan(args, config) -> int:
    plans = [
        plan_gsee(_inputs_from_config(config, alpha)) for alpha in args.alpha_values
    ]
    names, rows = _plan_rows(plans)
    _write_csv(os.path.join(args.out, "plans.csv"), names, rows)
    with open(os.path.join(args.out, "plan.txt"), "w") as fh:
        fh.write(plan_to_text(plans[0]))
    if "qpe" in config:
        baseline = plan_qpe_baseline(*_qpe_targets(config))
        with open(os.path.join(args.out, "plan.txt"), "a") as fh:
            fh.write(plan_to_text(baseline))
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
    plan = plan_gsee(_inputs_from_config(config, args.alpha_values[0]))
    dist = mixed_distribution(spec, plan)
    n = dist.n_bins
    fieldnames = ["z", "P_mixed"] + [f"P_{j}" for j in range(spec.J)]
    rows = []
    for z in range(n):
        row = {"z": z, "P_mixed": float(dist.mixed[z])}
        for j in range(spec.J):
            row[f"P_{j}"] = float(dist.per_eigenstate[j, z])
        rows.append(row)
    _write_csv(os.path.join(args.out, "spectrum.csv"), fieldnames, rows)
    names, plan_rows = _plan_rows([plan])
    _write_csv(os.path.join(args.out, "plans.csv"), names, plan_rows)
    print(f"wrote spectrum.csv with {n} bins for {spec.J} eigenphases")
    return 0


def _gsee_one_alpha(spec, config, alpha, runs, children, threads):
    inputs = _inputs_from_config(config, alpha)
    plan = plan_gsee(inputs)
    dist = mixed_distribution(spec, plan)

    def one_run(i: int):
        est = run_gsee(spec, None, children[i], plan=plan, dist=dist)
        return est

    if threads == 1 or runs == 1:
        estimates = [one_run(i) for i in range(runs)]
    else:
        workers = threads if threads > 0 else None
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            estimates = list(pool.map(one_run, range(runs)))
    return plan, estimates


def _cmd_gsee(args, config, sweep: bool = False) -> int:
    spec = _spectrum_from_config(config)
    alphas = args.alpha_values
    master = np.random.SeedSequence(args.seed)
    children = master.spawn(len(alphas) * args.runs)

    rows = []
    plans = []
    summary_alphas = {}
    for a_idx, alpha in enumerate(alphas):
        plan, estimates = _gsee_one_alpha(
            spec,
            config,
            alpha,
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

    fieldnames = ["run_id", "alpha", "q", "M", "M0", "mu_hat", "err", "n_dark", "n_left"]
    _write_csv(os.path.join(args.out, "estimates.csv"), fieldnames, rows)
    names, plan_rows = _plan_rows(plans)
    _write_csv(os.path.join(args.out, "plans.csv"), names, plan_rows)
    _write_json(
        os.path.join(args.out, "summary.json"),
        {"mode": "sweep" if sweep else "gsee", "seed": args.seed, "alphas": summary_alphas},
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
        est = run_qpe_baseline(spec, epsilon, delta, children[run_id], baseline)
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
    _write_csv(
        os.path.join(args.out, "estimates.csv"),
        ["run_id", "q", "n_samples", "theta_hat", "err", "success"],
        rows,
    )
    rate = failures / args.runs
    _write_json(
        os.path.join(args.out, "summary.json"),
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
    node = config.get("bounds", {})
    mc = node.get("mc", True)
    if not isinstance(mc, bool):
        raise ValueError(f"bounds.mc must be true or false, got {mc!r}")
    mc_rounds = _strict_int(node.get("mc_rounds", 2000), "bounds.mc_rounds")
    if mc_rounds < 1:
        raise ValueError(f"bounds.mc_rounds must be at least 1, got {mc_rounds}")

    def floats(key: str, default: Sequence[float]) -> tuple[float, ...]:
        return tuple(_strict_float(x, f"bounds.{key} entry") for x in node.get(key, default))

    report = bounds_lab.run_default_grid(
        etas=floats("etas", bounds_lab.DEFAULT_ETAS),
        deltas=floats("deltas", bounds_lab.DEFAULT_DELTAS),
        gaps=floats("gaps", bounds_lab.DEFAULT_GAPS),
        orders=tuple(
            _strict_int(m, "bounds.orders entry")
            for m in node.get("orders", bounds_lab.DEFAULT_ORDERS)
        ),
        mu_centers=floats("mu_centers", bounds_lab.DEFAULT_MU_CENTERS),
        eps_rel=_strict_float(node.get("eps_rel", bounds_lab.DEFAULT_EPS_REL), "bounds.eps_rel"),
        mc=mc,
        mc_rounds=mc_rounds,
    )
    rows = []
    for row in report.to_rows():
        flat = dict(row)
        flat["params"] = json.dumps(row["params"], sort_keys=True)
        rows.append(flat)
    fieldnames = [
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
    _write_csv(os.path.join(args.out, "bounds.csv"), fieldnames, rows)
    _write_json(os.path.join(args.out, "summary.json"), report.summary())
    print(
        f"bound cases: {report.n_cases}, violations: {report.n_violations}, "
        f"worst margin 1e{report.worst_margin_log10:.1f}"
    )
    return 0 if report.all_hold else 3


def main(argv: Sequence[str] | None = None) -> int:
    parser = _Parser(
        prog="gaussqpe",
        description="Plan, simulate, and audit Gaussian-window phase estimation.",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--mode", choices=_MODES, required=True)
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
                setattr(args, name, _strict_int(config.get(name, default), name))
        if args.runs < 1:
            raise ValueError(f"runs must be positive, got {args.runs}")
        if args.alpha_list is not None:
            alphas = [float(tok) for tok in args.alpha_list.split(",") if tok.strip()]
        elif "alpha_list" in config:
            alphas = [_strict_float(a, "alpha_list entry") for a in config["alpha_list"]]
        elif args.mode == "sweep":
            alphas = list(_DEFAULT_ALPHAS)
        else:
            alphas = [_strict_float(config.get("inputs", {}).get("alpha", 0.0), "inputs.alpha")]
        args.alpha_values = alphas

        os.makedirs(args.out, exist_ok=True)
        _echo_config(args.out, args, config)

        if args.mode == "plan":
            return _cmd_plan(args, config)
        if args.mode == "spectrum":
            return _cmd_spectrum(args, config)
        if args.mode == "gsee":
            return _cmd_gsee(args, config)
        if args.mode == "sweep":
            return _cmd_gsee(args, config, sweep=True)
        if args.mode == "qpe":
            return _cmd_qpe(args, config)
        if args.mode == "bounds":
            return _cmd_bounds(args, config)
        raise ValueError(f"unknown mode {args.mode!r}")
    except PlanInfeasible as exc:
        print(f"infeasible: {exc} [{exc.predicate}]", file=sys.stderr)
        return 2
    except SpectrumPlanMismatch as exc:
        print(f"spectrum mismatch: {exc}", file=sys.stderr)
        return 2
    except DistributionTooLarge as exc:
        print(f"distribution too large: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
