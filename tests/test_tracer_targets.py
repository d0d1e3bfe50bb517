"""The benchmark tracer's targets exist in the library.

``benchmark/tracing.py`` rebinds module and class attributes by name and
reports a missing one as incorrect output; a refactor that moves or drops
one of those bindings fails here instead of in a benchmark run.
"""

import importlib
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def test_every_traced_attribute_is_bound(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    tracing = importlib.import_module("tracing")
    for owner, attr, span, _ in tracing._TARGETS:
        assert attr in vars(owner), f"{owner.__name__}.{attr} ({span})"
