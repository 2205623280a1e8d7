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
