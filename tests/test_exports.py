import importlib
import pkgutil

import pytest

import hedgenet

MODULES = sorted(m.name for m in pkgutil.iter_modules(hedgenet.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    # a stale entry would break only `from hedgenet.<module> import *`
    mod = importlib.import_module(f"hedgenet.{name}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] \
        == []


def test_argument_error_is_exported_and_a_value_error():
    # callers that catch ValueError keep catching a refused argument
    assert hedgenet.ArgumentError is importlib.import_module(
        "hedgenet.rng").ArgumentError
    assert issubclass(hedgenet.ArgumentError, ValueError)
