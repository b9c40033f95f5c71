"""The benchmark's tracer patches library names from outside; a rename in
the library would silently drop its spans, so every traced name must
still exist."""

import importlib.util
from pathlib import Path

from boxrig.rangestack import RangeStack

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_exist():
    tracing = load_tracing()
    missing = [f"RangeStack.{name}" for name in tracing.RANGESTACK_METHODS
               if not callable(getattr(RangeStack, name, None))]
    spans = {**tracing.FUNCTION_SPANS, **tracing.METHOD_SPANS}
    missing += [span for span, (owner, attr) in spans.items()
                if not callable(getattr(owner, attr, None))]
    assert not missing, f"perfbench traces names that are gone: {missing}"
