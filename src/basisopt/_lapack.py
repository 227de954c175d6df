"""LAPACK routines from scipy's extension module, without scipy.linalg.

Importing the scipy.linalg package costs about 0.25 s and 20 MB per
process (numpy.f2py, numpy.testing and numpy.ma come with it), so
`flapack` loads its extension module scipy.linalg._flapack on its own
when no one has imported it yet. The FD layer takes dpttrf and dpttrs
from it, the reduced layer dtrtri.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys

FLAPACK = "scipy.linalg._flapack"


def _flapack_file() -> str | None:
    """The path of scipy's LAPACK extension module, found without
    importing scipy, or None when scipy or the file is missing."""
    spec = importlib.util.find_spec("scipy")
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    return None


@functools.cache
def flapack():
    """The module whose attributes are the LAPACK routines that
    scipy.linalg.lapack re-exports: scipy.linalg._flapack.

    The extension stays under its own name in sys.modules, as every
    extension module does, and a later `import scipy.linalg` takes that
    module and its same routine objects. Without the file, or if it does
    not load, the module is scipy.linalg.lapack."""
    module = sys.modules.get(FLAPACK)
    path = None if module else _flapack_file()
    if path:
        loader = importlib.machinery.ExtensionFileLoader(FLAPACK, path)
        spec = importlib.util.spec_from_file_location(FLAPACK, path, loader=loader)
        try:
            module = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
        except ImportError:
            module = None
    if module is None:
        from scipy.linalg import lapack

        return lapack
    return module
