"""Package exports resolved on first use (PEP 562): importing a package
loads none of its modules until one of its exported names is read."""

import sys
from importlib import import_module


def lazy_exports(package: str, sources: dict[str, tuple[str, ...]], **own):
    """The `__getattr__`, `__dir__` and `__all__` of package, all read from
    one table.  A name listed under a module in sources is imported from it
    (relative to package) when first read, then kept on the package; own
    holds the values package defines itself, which are set on it now.
    `__all__` is every name of own and sources, and `__dir__` adds them to
    what the package holds without importing anything."""
    namespace = vars(sys.modules[package])
    namespace.update(own)
    home = {name: module for module, names in sources.items() for name in names}

    def __getattr__(name: str):
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | home.keys())

    return __getattr__, __dir__, [*own, *home]
