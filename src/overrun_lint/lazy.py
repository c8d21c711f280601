"""Package exports resolved on first use (PEP 562): importing a package
loads none of its modules until one of its exported names is read."""

import sys
from importlib import import_module


def lazy_exports(package: str, sources: dict[str, tuple[str, ...]]):
    """The module `__getattr__` for package: a name listed under a module in
    sources is imported from it (relative to package) when first read, then
    kept on the package."""
    home = {name: module for module, names in sources.items() for name in names}

    def __getattr__(name: str):
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
