"""Every name the benchmark's tracer re-binds must still exist in tiltlab.

``perfbench/tracer.py`` looks each listed function, method and tape op up
with ``getattr`` when tracing is installed, so deleting one breaks
``perfbench/run.py --trace 1`` while nothing else notices.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _missing(pairs):
    return [name for name, obj in pairs if not callable(obj)]


def test_traced_names_resolve_to_callables():
    tr = _tracer()
    functions = [(f"{mod}.{attr}", getattr(importlib.import_module(mod), attr, None))
                 for mod, attr, _ in tr.FUNCTIONS]
    methods = [(f"{mod}.{cls}.{meth}",
                getattr(getattr(importlib.import_module(mod), cls, None), meth, None))
               for mod, cls, meth, _ in tr.METHODS]
    tape = importlib.import_module("tiltlab.autodiff.tape").Tape
    ops = [(f"Tape.{op}", getattr(tape, op, None)) for op in tr.TAPE_OPS]
    assert functions and methods and ops
    assert _missing(functions + methods + ops) == []
