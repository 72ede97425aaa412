"""Print a sha256 of every artifact and of the stdout of each CLI mode.

Run from the repository root:

    PYTHONPATH=src python tests/artifact_digests.py > digests.txt

Each mode runs through ``gaussqpe.cli.main`` on the acceptance config
(plan at alpha 0, 0.5 and 1; spectrum; gsee at one and two threads;
sweep; the qpe baseline at 50 runs; bounds on the benchmark's sub-grid),
plan runs at alphas 0, 0.5 and 1 with ``inputs.m`` 2 and 4, the
benchmark's gsee-deep plan (alpha 1 at ``epsilon`` 1e-3, 1227 budget
halvings), one gsee run at alpha 0 and ``epsilon`` 1e-3, whose 83 000
rounds span two chunks of the round sampler, bounds on the default
grid with its Monte Carlo shadow (5235 cases, about 2 s), and the
spectrum given the two other ways: as a complex ``dense_hamiltonian``
(spectrum mode) and as a ``path`` to a file holding CONFIG's spectrum
(gsee). The runs work in a temporary directory, so the path and every
``config-echo.json`` are the same in every checkout.
Every line reads ``<run>/<file> <sha256>``, so two checkouts make the
same bytes when ``diff`` of their outputs is empty. Not a pytest module.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from gaussqpe.cli import main

CONFIG = {
    "inputs": {
        "delta_fail": 0.1,
        "eta": 0.5,
        "Delta_true": 0.15,
        "epsilon": 0.01,
        "alpha": 0.0,
    },
    "spectrum": {"eigenphases": [-0.2, -0.05, 0.15], "overlaps_sq": [0.5, 0.3, 0.2]},
    "qpe": {"epsilon": 0.01, "delta": 0.01},
    # The benchmark's bounds-grid workload: every case kind, 238 cases.
    "bounds": {
        "etas": [0.25, 1.0],
        "deltas": [0.01],
        "gaps": [0.1],
        "orders": [1, 2],
        "mu_centers": [-0.25, 0.25],
        "mc_rounds": 500,
    },
}

# Runs named here take CONFIG with these ``inputs`` keys replaced: the
# planner sizes each moment order differently.
INPUT_OVERRIDES = {
    "plan-m2": {"m": 2},
    "plan-m4": {"m": 4},
    "plan-deep": {"epsilon": 1e-3},
    "gsee-eps1e-3": {"epsilon": 1e-3},
}

# Runs named here take this ``spectrum`` section in place of CONFIG's.
SPECTRUM_FILE = "spectrum-file.json"
SPECTRUM_OVERRIDES = {
    # Eigenphases about -0.160 and 0.110; the ground overlap is about 0.81.
    "spectrum-dense": {
        "dense_hamiltonian": {
            "matrix_real": [[-0.15, 0.03], [0.03, 0.1]],
            "matrix_imag": [[0.0, -0.04], [0.04, 0.0]],
            "initial_real": [0.96, 0.0],
            "initial_imag": [0.0, 0.28],
        }
    },
    "spectrum-path": {"path": SPECTRUM_FILE},
}

# Runs named here take this ``bounds`` section in place of CONFIG's; an
# empty one runs the default grid.
BOUNDS_OVERRIDES = {"bounds-default": {}}

RUNS = {
    "plan-alpha0": ["--mode", "plan", "--alpha-list", "0"],
    "plan-alpha0.5": ["--mode", "plan", "--alpha-list", "0.5"],
    "plan-alpha1": ["--mode", "plan", "--alpha-list", "1"],
    "spectrum": ["--mode", "spectrum"],
    "gsee-threads1": ["--mode", "gsee", "--runs", "4", "--seed", "11", "--threads", "1"],
    "gsee-threads2": ["--mode", "gsee", "--runs", "4", "--seed", "11", "--threads", "2"],
    "sweep": ["--mode", "sweep", "--runs", "2", "--seed", "5"],
    "qpe": ["--mode", "qpe", "--runs", "50", "--seed", "3"],
    "bounds": ["--mode", "bounds"],
    "plan-m2": ["--mode", "plan", "--alpha-list", "0,0.5,1"],
    "plan-m4": ["--mode", "plan", "--alpha-list", "0,0.5,1"],
    "plan-deep": ["--mode", "plan", "--alpha-list", "1"],
    "gsee-eps1e-3": ["--mode", "gsee", "--runs", "1", "--seed", "13"],
    "bounds-default": ["--mode", "bounds"],
    "spectrum-dense": ["--mode", "spectrum"],
    "spectrum-path": ["--mode", "gsee", "--runs", "2", "--seed", "7"],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main_digests() -> int:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            return _print_digests()
        finally:
            os.chdir(home)


def _print_digests() -> int:
    with open(SPECTRUM_FILE, "w") as fh:
        json.dump(CONFIG["spectrum"], fh)
    for name, argv in RUNS.items():
        config = f"{name}.json"
        with open(config, "w") as fh:
            inputs = {**CONFIG["inputs"], **INPUT_OVERRIDES.get(name, {})}
            spectrum = SPECTRUM_OVERRIDES.get(name, CONFIG["spectrum"])
            grid = BOUNDS_OVERRIDES.get(name, CONFIG["bounds"])
            json.dump({**CONFIG, "inputs": inputs, "spectrum": spectrum, "bounds": grid}, fh)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = main(["--config", config, "--out", name, *argv])
        if rc != 0:
            print(f"{name} exited {rc}", file=sys.stderr)
            return 1
        print(f"{name}/stdout {_sha256(stdout.getvalue().encode())}")
        for artifact in sorted(os.listdir(name)):
            with open(os.path.join(name, artifact), "rb") as fh:
                print(f"{name}/{artifact} {_sha256(fh.read())}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main_digests())
