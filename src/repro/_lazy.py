"""Package namespaces that load on first use (PEP 562).

A package ``__init__`` hands :func:`attach` one table of public name ->
submodule. Importing the package then loads none of its submodules:
the first access to a name imports the submodule that holds it and
caches the value in the package's globals, so later accesses are plain
attribute reads.
"""

from __future__ import annotations

import sys
from typing import Any, Callable


def attach(package: str, table: dict[str, str]
           ) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``table`` maps each public name to the submodule it lives in,
    relative to ``package``; a name mapped to itself is that submodule.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        if name not in table:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        qualified = f"{package}.{table[name]}"
        # The builtin, not importlib.import_module: only imports made
        # through it show in ``python -X importtime``.
        __import__(qualified)
        module = sys.modules[qualified]
        value = module if table[name] == name else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__, sorted(table)
