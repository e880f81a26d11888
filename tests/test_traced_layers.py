"""Names that code outside a module reaches by name must still resolve: the
functions the benchmark tracer wraps, the benchmark's argv, and the package exports."""
import importlib
import importlib.util
import os
import subprocess
import sys

import hankelpert
from hankelpert.dsl import PerturbationFn

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYERS_PATH = os.path.join(ROOT, "perfbench", "layers.py")


def test_every_traced_layer_exists():
    # layers.py imports no package code at load time
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [f"hankelpert.{module}.{function}" for module, function, _ in layers.WRAPPED
               if not callable(getattr(importlib.import_module(f"hankelpert.{module}"),
                                       function, None))]
    assert missing == []
    # counted, not wrapped
    assert "__call__" in vars(PerturbationFn)


def test_benchmark_self_test_passes():
    # parses every argv the workloads can generate and checks BENCHMARK.json
    result = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--self-test"],
                            cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.rstrip().endswith(", 0 problems")


def test_every_export_resolves():
    assert [name for name in hankelpert.__all__ if not hasattr(hankelpert, name)] == []
