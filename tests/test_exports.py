"""The exported names: every name in privexp.__all__ and in each module's
__all__ resolves, and every function in a module's __all__ is defined in
that module, and every function privexp.__all__ re-exports is in the
__all__ of the module that defines it. The benchmark's tracer finds the
public functions through the modules' __all__ and names each span by the
module that defines it; a module without __all__ (errors) exports no
function to it."""

import importlib
import inspect
import pkgutil

import pytest

import privexp

MODULES = [module for module in (
    privexp, *(importlib.import_module(f"privexp.{info.name}")
               for info in pkgutil.iter_modules(privexp.__path__)))
           if hasattr(module, "__all__")]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_export_resolves_and_functions_are_defined_where_exported(module):
    for name in module.__all__:
        assert hasattr(module, name), name
        obj = getattr(module, name)
        if module is not privexp and inspect.isfunction(obj):
            assert obj.__module__ == module.__name__, name


def test_every_reexported_function_is_exported_where_defined():
    for name in privexp.__all__:
        obj = getattr(privexp, name)
        if inspect.isfunction(obj):
            defining = importlib.import_module(obj.__module__)
            assert name in defining.__all__, (name, obj.__module__)
