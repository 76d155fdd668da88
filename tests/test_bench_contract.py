"""The benchmark's tracer wraps momir functions by name and binds their arguments.

A rename of a traced function or of an argument it reads would break only the
traced benchmark run; these checks make it fail here instead.  The tracer is
read from its file and executed in a fresh namespace, so nothing is written
next to it.
"""

import importlib
import inspect
import re
import types
import typing
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


tracer = load_tracer()
TARGETS = [target for targets in tracer.TRACED.values() for target in targets]


def bound_names(amount_of_call) -> set[str]:
    return set(re.findall(r'arguments\["(\w+)"\]', inspect.getsource(amount_of_call)))


def test_amount_functions_bind_the_documented_names():
    names = set().union(*(bound_names(t[2]) for t in TARGETS if t[2] is not None))
    assert names == {
        "text", "x_matrix", "lookbacks", "values", "min_segment", "max_breaks", "paths", "length",
    }


@pytest.mark.parametrize("module_name, attr, amount_of_call, amount_of_result", TARGETS,
                         ids=[f"{t[0]}.{t[1]}" for t in TARGETS])
def test_traced_function_exists_with_bound_arguments(
    module_name, attr, amount_of_call, amount_of_result
):
    fn = getattr(importlib.import_module(module_name), attr, None)
    assert callable(fn), f"{module_name}.{attr} is traced but missing"
    if amount_of_call is not None:
        params = set(inspect.signature(fn).parameters)
        assert bound_names(amount_of_call) <= params
    if amount_of_result is not None:
        assert "iterations" in typing.get_type_hints(fn)["return"].__dataclass_fields__
