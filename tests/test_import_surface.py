"""What importing the CLI costs and what the benchmark's tracer patches."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import scipy.special
import scipy.stats

ROOT = Path(__file__).resolve().parent.parent


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes most of a cold start; the CLI must not load it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = "import sys, spnperf.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_scipy_special_unloaded():
    # the simulator's Student-t quantile uses only math
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = "import sys, spnperf.cli; print('scipy.special' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"


def test_stdtrit_equals_t_ppf():
    # the simulator's half-width quantile, bit for bit what scipy.stats gives
    for df in range(1, 201):
        assert float(scipy.special.stdtrit(df, 0.975)) == float(scipy.stats.t.ppf(0.975, df)), df


def _patch_points():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    sys.modules[spec.name] = tracing
    try:
        spec.loader.exec_module(tracing)
    finally:
        del sys.modules[spec.name]
    return tracing.PATCH_POINTS


def test_every_traced_name_is_importable():
    # the traced benchmark replaces these module attributes with wrappers
    for module, attr, _span, _attrs in _patch_points():
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
