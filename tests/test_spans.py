"""The traced benchmark wraps module attributes by name; a binding that
disappears from the package breaks it without failing any other test."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_wrap_point_binding_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAP_POINTS
    missing = [
        f"{module}.{attr}"
        for module, attr, _name, _counter in spans.WRAP_POINTS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
