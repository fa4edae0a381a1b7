import importlib
import pkgutil

import oddtrace


def test_every_public_name_resolves():
    modules = [oddtrace] + [importlib.import_module(f"oddtrace.{info.name}")
                            for info in pkgutil.iter_modules(oddtrace.__path__)]
    assert len(modules) >= 8  # the package and its seven modules
    for module in modules:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
