"""The benchmark's traced names must exist in mpfc.

``bench/tracer.py`` rebinds each (module, function) it lists; a refactor that
renames or removes one should fail here, in the unit loop, rather than in a
later ``--trace 1`` benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module_name,func_name", traced_names())
def test_traced_function_exists(module_name, func_name):
    module = importlib.import_module(f"mpfc.{module_name}")
    assert callable(getattr(module, func_name, None)), f"mpfc.{module_name}.{func_name}"
