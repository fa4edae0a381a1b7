import importlib
import inspect
import pkgutil

import oddtrace

MODULES = [importlib.import_module(f"oddtrace.{info.name}")
           for info in pkgutil.iter_modules(oddtrace.__path__)]


def test_every_public_name_resolves():
    assert len(MODULES) >= 7  # the package's seven modules
    for module in [oddtrace] + MODULES:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_the_package_root_keeps_only_the_series_type():
    assert oddtrace.__all__ == ["FracPowerSeries", "__version__"]
    assert oddtrace.FracPowerSeries.__module__ == "oddtrace.qseries"


def test_every_public_name_has_one_home():
    # A class or function is public in the module that defines it, and in no
    # other; the root's FracPowerSeries is the one exception.
    for module in [oddtrace] + MODULES:
        for name in module.__all__:
            value = getattr(module, name)
            if module is oddtrace and name == "FracPowerSeries":
                continue
            if inspect.isclass(value) or inspect.isroutine(value):
                assert value.__module__ == module.__name__, f"{module.__name__}.{name}"
