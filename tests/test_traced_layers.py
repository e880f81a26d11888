"""The benchmark tracer wraps package functions by name; each must still exist."""
import importlib
import importlib.util
import os

from hankelpert.dsl import PerturbationFn

LAYERS_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "perfbench", "layers.py")


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
