"""Generated configs through ``cli.main``: the exit-code contract.

Every config, whatever its values, ends in a documented exit code
(0 success, 1 bad input, 2 infeasible, 3 bound violation), never in a
traceback, and a run writes ``--out`` exactly when it exits 0 or 3.

Each example draws a valid config, every key from values the modes
accept, then replaces up to three keys or whole sections by a value on
the edge of the domain, by junk (+-inf, NaN, strings, bools, nested
objects, null, 0, 1e-300) or deletes them. Valid values are kept cheap:
small registers, one-entry bound axes and no Monte Carlo shadow, which
a deleted bound axis or section would bring back, so those stay.
"""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import given, settings, strategies as st

from gaussqpe.cli import main

JUNK = (math.inf, -math.inf, math.nan, "0.1", True, False, {"x": 1}, [0.1], None, 0, 1e-300)
DELETE = object()

# Per section (None is the root) and key: (valid values, edge values).
SPECS = {
    None: {
        "seed": ((0, 7), (-1, 2**64)),
        "runs": ((1, 2), (-1,)),
        "threads": ((1, 2), (0, -1)),
        "alpha_list": (([0.0], [0.0, 0.5]), ([], [1.0], [-0.5], ["0.5"], [math.nan])),
    },
    "inputs": {
        "delta_fail": ((0.1, 0.05), (0.999999, 1.0, 1e-30)),
        "eta": ((0.5, 1.0), (1.000001, 5e-324)),
        "Delta_true": ((0.15, 0.3), (1.0, 0.999999)),
        "epsilon": ((0.01, 0.05), (0.15, 1e-150)),
        "alpha": ((0.0, 0.5), (1.0, -0.0, 1.5)),
        "m": ((1,), (2, 4, 5)),
        "c": ((0.5,), (1.0, 0.999999)),
    },
    "spectrum": {
        "eigenphases": (([-0.2, -0.05, 0.15],), ([0.5, -0.5], [], [[0.1]])),
        "overlaps_sq": (
            ([0.5, 0.3, 0.2],),
            ([1.0, 0.0, 0.0], [0.5, 0.5, 0.5], [-1.0, 1.0, 1.0]),
        ),
    },
    "qpe": {
        "epsilon": ((0.01, 0.1), (0.5, 0.51, 1e-10)),
        "delta": ((0.01, 0.1), (0.999999, 1.0)),
    },
    "bounds": {
        "mc_rounds": ((1, 500), (2**63, -1)),
        "etas": (([0.5],), ([1.0], [1e-300], [])),
        "deltas": (([0.01],), ([0.02], [1e-300])),
        "gaps": (([0.1],), ([0.34], [0.48], [0.5], [0.999999], [1.0])),
        "orders": (([1],), ([4], [5], [1.0])),
        "mu_centers": (([0.0],), ([-0.5], [0.5])),
        "eps_rel": ((0.001,), (0.999999, 1.0)),
    },
}
# A missing bound axis or section falls back to the default grid (and its shadow).
KEEP = {("bounds", key) for key in SPECS["bounds"]} | {(None, "bounds")}
PATHS = [(section, key) for section, keys in SPECS.items() for key in keys]
PATHS += [(None, section) for section in SPECS if section is not None] + [(None, None)]


@st.composite
def configs(draw):
    config = {
        section: {key: draw(st.sampled_from(valid)) for key, (valid, _) in keys.items()}
        for section, keys in SPECS.items()
        if section is not None
    }
    config["bounds"]["mc"] = False
    for key, (valid, _) in SPECS[None].items():
        config[key] = draw(st.sampled_from(valid))
    for section, key in draw(st.lists(st.sampled_from(PATHS), max_size=3, unique=True)):
        if key is None:
            return draw(st.sampled_from(JUNK))
        edge = SPECS[section][key][1] if key in SPECS.get(section, {}) else ()
        value = draw(st.sampled_from(edge + JUNK + (() if (section, key) in KEEP else (DELETE,))))
        node = config if section is None else config.get(section)
        if not isinstance(node, dict):
            continue
        if value is DELETE:
            del node[key]
        else:
            node[key] = value
    return config


def _run(mode, config):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        out = os.path.join(tmp, "out")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(["--config", path, "--mode", mode, "--out", out])
        return rc, stderr.getvalue(), os.path.exists(out)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(mode=st.sampled_from(["plan", "spectrum", "gsee", "sweep", "qpe", "bounds"]),
       config=configs())
def test_generated_configs_keep_the_exit_contract(mode, config):
    rc, err, wrote = _run(mode, config)
    assert rc in (0, 1, 2, 3), (rc, err)
    assert "Traceback" not in err
    assert wrote == (rc in (0, 3)), (rc, err)
