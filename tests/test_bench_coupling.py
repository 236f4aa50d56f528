"""The benchmark's tracer patches ``vlac`` functions by name and its work
counters read their arguments by name. A rename in the package would only
fail inside a traced benchmark run; these checks fail here instead."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


def traced(name):
    """The ``vlac`` function the tracer patches for ``module.function``."""
    module_name, fn_name = name.split(".")
    return getattr(importlib.import_module(f"vlac.{module_name}"), fn_name)


def arguments_read(fn):
    """The argument names a counter reads: the identifier-like string
    constants of its code and of the tracing helpers it calls."""
    code = fn.__code__
    names = {c for c in code.co_consts if isinstance(c, str) and c.isidentifier()}
    for helper in code.co_names:
        other = getattr(tracing, helper, None)
        if inspect.isfunction(other) and other is not fn:
            names |= arguments_read(other)
    return names


@pytest.mark.parametrize("name", [f"{m}.{f}" for m, fns in tracing.TRACED.items()
                                  for f in fns])
def test_traced_name_resolves(name):
    assert callable(traced(name))


@pytest.mark.parametrize("name", sorted(tracing.COUNTERS))
def test_counter_arguments_are_parameters(name):
    assert name.split(".")[1] in tracing.TRACED[name.split(".")[0]]
    parameters = set(inspect.signature(traced(name)).parameters)
    for counter, _, compute in tracing.COUNTERS[name]:
        assert arguments_read(compute) <= parameters, counter


def test_every_counter_argument_is_checked():
    read = set().union(*(arguments_read(compute)
                         for counters in tracing.COUNTERS.values()
                         for _, _, compute in counters))
    assert {"features", "points", "rows", "path", "query", "target"} <= read
