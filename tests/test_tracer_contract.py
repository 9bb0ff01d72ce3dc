"""The benchmark's tracer names alnet functions; each must exist where it says.

``perfbench/tracer.py`` leaves out the metrics of a function it cannot
find, so a renamed or moved function would show up only as a traced run
without its per-layer metrics.  This test fails on the rename instead.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("target", sorted({fn for fn, _ in tracer.FUNCTION_METRICS.values()}))
def test_every_traced_function_is_public_in_its_layer(target):
    layer, name = target.split(".")
    assert layer in tracer.LAYERS
    fn = getattr(importlib.import_module(f"alnet.{layer}"), name, None)
    assert inspect.isfunction(fn) and not name.startswith("_"), f"alnet.{target} is not a public function"
    assert fn.__module__ == f"alnet.{layer}", f"alnet.{target} is defined in {fn.__module__}"
