"""Compiled scipy extension modules, loaded without their package inits.

Importing scipy.integrate._odepack or scipy.linalg._flapack by name runs
the package init of scipy.integrate or scipy.linalg first, which pulls in
scipy.special, scipy.optimize, scipy.sparse and more.  Measured with scipy
1.17 on a 2-vCPU machine, that is about +48 MiB resident and 0.4 s of
start-up for scipy.integrate and +23 MiB and 0.2 s for scipy.linalg, where
the compiled module alone costs a few MiB and tens of milliseconds.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from types import ModuleType


def extension(name: str) -> ModuleType:
    """The compiled module `name`, e.g. "scipy.linalg._flapack", from its file.

    Only the top-level scipy package is imported, to locate the file.  The
    module is registered in sys.modules under its own name, so a later
    import of its package reuses the same module object: after
    `from scipy.linalg import lapack`, lapack.dpttrs is this module's
    dpttrs.  That import does not set the module as an attribute of its
    package, though, so `scipy.linalg._flapack` (or
    `scipy.integrate._odepack`) then raises AttributeError; read it from
    sys.modules, or through the public module that wraps it.
    """
    module = sys.modules.get(name)
    if module is None:
        package = importlib.util.find_spec(name.rpartition(".")[0])
        spec = importlib.machinery.PathFinder.find_spec(name, package.submodule_search_locations)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module
