"""The exported names. Each library module's __all__ is the one list of its
public names: privexp.__all__ is "__version__" and those lists, each name
once. Every name in privexp.__all__ and in each module's __all__ resolves,
every function in a module's __all__ is defined in that module, and every
function privexp.__all__ re-exports is in the __all__ of the module that
defines it. The benchmark's tracer finds the public functions through the
modules' __all__ and names each span by the module that defines it; the
__all__ of errors lists its PrivexpError classes only, so the helpers
check_in and check_count are neither exported nor traced."""

import importlib
import inspect
import pkgutil

import pytest

import privexp
from privexp import errors

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


def test_the_package_exports_the_library_modules_lists_once():
    library = [module for module in MODULES
               if module is not privexp and module.__name__ != "privexp.cli"]
    names = ["__version__", *(name for module in library for name in module.__all__)]
    assert len(names) == len(set(names))
    assert sorted(privexp.__all__) == sorted(names)
    assert len(library) == len(list(pkgutil.iter_modules(privexp.__path__))) - 1


def test_errors_exports_exactly_its_error_classes():
    classes = [name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, privexp.PrivexpError)
               and obj.__module__ == errors.__name__]
    assert sorted(errors.__all__) == sorted(classes)
    assert len(errors.__all__) == len(set(errors.__all__))
    for helper in ("check_in", "check_count"):
        assert helper not in errors.__all__ and helper not in privexp.__all__
