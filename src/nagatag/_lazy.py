"""Modules that load on first use."""

from __future__ import annotations

import importlib.util
import sys
import types


def lazy(name: str) -> types.ModuleType:
    """The module called name, run when one of its attributes is first read,
    so that a command that reads none does not pay for importing it. A module
    already imported comes back as it is. This is the LazyLoader recipe of
    the importlib documentation; a name with no module raises
    ModuleNotFoundError here, as an import statement would."""
    if (module := sys.modules.get(name)) is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module
