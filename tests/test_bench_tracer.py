"""The benchmark's traced names must exist in mpfc and see inside a run.

``bench/tracer.py`` rebinds each (module, function) it lists; a refactor that
renames or removes one should fail here, in the unit loop, rather than in a
later ``--trace 1`` benchmark run.  A run that reached its diagnostics through
private twins of the traced functions would record no spans for them, so a
small traced run must record the calls it makes, and ``run`` may import no
private name.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import mpfc.run
from mpfc.dynamics import ModelKind, ModelSpec
from mpfc.grid import GridSpec
from mpfc.scenarios import Disk, Scenario
from mpfc.testfields import bump_field

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_names():
    return tracer_module().TRACED


@pytest.mark.parametrize("module_name,func_name", traced_names())
def test_traced_function_exists(module_name, func_name):
    module = importlib.import_module(f"mpfc.{module_name}")
    assert callable(getattr(module, func_name, None)), f"mpfc.{module_name}.{func_name}"


def test_traced_run_records_its_diagnostics():
    # 6 steps with samples at steps 0, 3 and 6, one bump series, 2 phases.
    tracer_mod = tracer_module()
    spec = GridSpec(2, 32)
    model = ModelSpec(ModelKind.MEAN_SHIFT, 2.0 / 32, 2)
    scenario = Scenario(geometry=Disk(radius=0.3), model=model, grid=spec, dt=spec.h**2,
                        t_end=6 * spec.h**2, snapshot_every=3)
    tracer = tracer_mod.Tracer(tracer_mod.TRACED)
    with tracer.installed():
        mpfc.run.run_simulation(scenario, brakke_phis={"bump": (bump_field(spec), None)})
    calls = {name: row["calls"] for name, row in tracer.layer_totals().items()}
    assert calls["analysis.brakke_rhs_integrand"] == 6 + 1
    assert calls["diagnostics.measure_sample"] == 3
    # Two phases: one pairing per phase inside each integrand and each sample.
    names = {span[0]: span[2] for span in tracer.spans}
    callers = [names.get(span[1]) for span in tracer.spans if span[2] == "grid.grad_dot_raw"]
    assert callers.count("analysis.brakke_rhs_integrand") == 2 * (6 + 1)
    assert callers.count("diagnostics.measure_sample") == 2 * 3


def test_run_imports_no_private_name():
    tree = ast.parse(Path(mpfc.run.__file__).read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private
