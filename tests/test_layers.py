"""The benchmark tracer's layer table names functions that exist.

``bench/tracer.py`` wraps every ``(module, name)`` of its ``LAYERS`` table
in ``pseudospec``; a function renamed or removed here would break the
traced benchmark run.  The benchmark's own tests are outside this suite,
so this test loads the tracer by path and checks each binding.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("pseudospec_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


BINDINGS = [(module, name) for module, names in _layers().values() for name in names]


def test_layer_table_is_not_empty():
    assert len(BINDINGS) >= 20


@pytest.mark.parametrize("module, name", BINDINGS, ids=lambda x: x)
def test_layer_function_exists(module, name):
    mod = importlib.import_module(f"pseudospec.{module}")
    assert callable(getattr(mod, name, None))
