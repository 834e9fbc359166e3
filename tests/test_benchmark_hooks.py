"""The benchmark tracer (perfbench/tracer.py) patches library methods and
integrators by name; a rename or move would break traced benchmark runs with
a KeyError.  Its name tables are loaded by file path, without installing the
tracer, and checked against the library."""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_import():
    for layer in load_tracer().LAYERS:
        importlib.import_module(f"fcslab.{layer}")


def test_traced_methods_exist():
    for (layer, cls_name), names in load_tracer().METHODS.items():
        cls = getattr(importlib.import_module(f"fcslab.{layer}"), cls_name)
        for name in names:
            assert name in cls.__dict__, f"{cls_name}.{name}"


def test_from_points_is_classmethod_with_weights():
    from fcslab.states import AtomicMeasure

    raw = AtomicMeasure.__dict__["from_points"]
    assert isinstance(raw, classmethod)
    assert "weights" in inspect.signature(raw.__func__).parameters


def test_counted_integrators_are_module_attributes():
    for layer, name in load_tracer().INTEGRATORS:
        assert callable(getattr(importlib.import_module(f"fcslab.{layer}"), name))


def test_counted_integrators_are_distinct_objects():
    # The tracer replaces every binding of each integrator; one shared object
    # would count each integral's evaluations under both names.
    found = [getattr(importlib.import_module(f"fcslab.{layer}"), name)
             for layer, name in load_tracer().INTEGRATORS]
    assert len({id(f) for f in found}) == len(found)


def test_benchmarked_spans_name_traced_callables():
    # A per-layer metric "<layer>.<name>.<stat>" reads the span of a public
    # function of fcslab.<layer> or of a traced method; deleting or renaming
    # it would leave the metric silently empty.
    tracer = load_tracer()
    methods = {(layer, name) for (layer, _), names in tracer.METHODS.items() for name in names}
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    spans = [m["name"].split(".")[:2] for m in metrics if m["name"].split(".")[0] in tracer.LAYERS]
    assert spans
    for layer, name in spans:
        mod = importlib.import_module(f"fcslab.{layer}")
        fn = getattr(mod, name, None)
        public = inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_")
        assert public or (layer, name) in methods, f"{layer}.{name}"
