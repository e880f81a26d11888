"""Names that code outside a module reaches by name must still resolve: the
functions the benchmark tracer wraps, the benchmark's argv, and the package exports;
and a traced benchmark invocation must still record a span in every layer it expects."""
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys

import pytest

import hankelpert
from hankelpert.dsl import PerturbationFn

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _perfbench_module(name):
    # layers.py and workloads.py import no package code at load time
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _child(mode, payload):
    """One fresh benchmark child process (perfbench/child.py) and its JSON result."""
    result = subprocess.run([sys.executable, os.path.join(PERFBENCH, "child.py"),
                             os.path.join(ROOT, "src"), mode, json.dumps(payload)],
                            cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_every_traced_layer_exists():
    layers = _perfbench_module("layers")
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


@pytest.mark.parametrize("workload", ("bare-exact", "compare-sweep"))
def test_traced_run_records_every_expected_layer(workload):
    """One invocation of the workload run as the benchmark's --trace 1 runs it: the
    run succeeds and every layer the workload must reach records a span (the
    benchmark's traced run exits 1 otherwise)."""
    layers = _perfbench_module("layers")
    case = _perfbench_module("workloads").make_cases(workload, 1, 45)[0]
    result = _child("trace", list(case.argv))
    assert result["rc"] == 0, result.get("exception") or result["stderr"]
    per_layer = layers.aggregate([{"spans": result["spans"], "h_calls": result["h_calls"],
                                   "rows": len(case.sizes)}])
    missing = [name for name in layers.EXPECTED[workload] if per_layer[f"{name}.calls"] == 0]
    if workload != "bare-exact" and per_layer[layers.H_CALLS] == 0:
        missing.append(layers.H_CALLS)
    assert missing == [], case.label


def test_scaling_probe_runs_every_stage():
    """The traced run's stage probe calls each stage at n and 2n by name."""
    layers = _perfbench_module("layers")
    probe = _child("probe", {})
    assert sorted(probe) == sorted(layers.PROBED)
    assert all(math.isfinite(probe[name]["exponent"]) for name in layers.PROBED)
