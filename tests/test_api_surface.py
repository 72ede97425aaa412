"""Every exported name resolves, and so does every callable the traced
benchmark wraps (``bench/spans.py``), so a cleanup cannot silently break
either; and the command line's import chain stays lean."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gaussqpe

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
MODULES = sorted(
    info.name for info in pkgutil.iter_modules(gaussqpe.__path__) if info.name != "__main__"
)


def test_package_exports_resolve():
    missing = [name for name in gaussqpe.__all__ if not hasattr(gaussqpe, name)]
    assert missing == []


@pytest.mark.parametrize("module_name", MODULES)
def test_module_exports_resolve(module_name):
    module = importlib.import_module(f"gaussqpe.{module_name}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_benchmark_span_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module_name, path, _ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for attr in path.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), f"{module_name}.{path}"


def test_cli_import_leaves_lazy_modules_unloaded():
    """The bound lab and ``concurrent.futures`` are imported only by the
    modes that use them: together they add about 33 ms to every run's
    start-up."""
    lazy = ("gaussqpe.bounds", "concurrent.futures")
    code = f"import sys, gaussqpe.cli; print([m for m in {lazy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(Path(gaussqpe.__file__).parent.parent)}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"
