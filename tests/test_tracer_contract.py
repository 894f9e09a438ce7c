"""The benchmark's tracer looks up the names it wraps when it is imported
and when it is installed; a layer rename or deletion must fail here, not
in a benchmark run."""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("hxfib_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists(tracer):
    for span, (owner, attrs) in tracer.TARGETS.items():
        if isinstance(owner, type):
            for attr in attrs:
                assert attr in vars(owner), f"{span}: {owner.__name__}.{attr} is gone"
        else:
            holders = [m for m in tracer.PACKAGE_MODULES if owner in vars(m).values()]
            assert holders, f"{span}: no package module holds {owner.__name__}"

