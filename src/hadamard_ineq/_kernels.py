"""The five compiled scipy kernels the package calls, loaded without scipy's
package ``__init__`` files.

``ive`` and ``kve`` give the closed-form power-law warping, ``dpttrf`` and
``dpttrs`` the tridiagonal Poincare pencil and the Rayleigh preconditioner,
and ``dgtsv`` the backward-Euler porous-medium steps.  They live in two
extension modules, ``scipy.special._special_ufuncs`` and
``scipy.linalg._flapack``.  Importing ``scipy.special`` or ``scipy.linalg``
would first run the package ``__init__`` files, and through
``scipy._lib._array_api`` import ``numpy.testing``, ``numpy.f2py`` and
``numpy.ma``: most of the import time of the command line and about 20 MB
of memory.  So each extension module is loaded from its file and registered
in ``sys.modules`` under its own name, where a later ``import scipy.special``
or ``import scipy.linalg`` finds it and reuses it.  Where that fails (scipy
before 1.15 has no ``_special_ufuncs``), the public imports serve.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys


def _load_bare(name: str):
    """The extension module ``name`` (``scipy.<package>.<module>``), loaded
    from its file without importing the packages above it."""
    if name in sys.modules:
        return sys.modules[name]
    _, *packages, leaf = name.split(".")
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(root, *packages, leaf + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"no extension module file for {name}")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


try:
    _special = _load_bare("scipy.special._special_ufuncs")
    _flapack = _load_bare("scipy.linalg._flapack")
    ive, kve = _special.ive, _special.kve
    dgtsv, dpttrf, dpttrs = _flapack.dgtsv, _flapack.dpttrf, _flapack.dpttrs
except (ImportError, AttributeError):  # an older or differently laid out scipy
    from scipy.linalg.lapack import dgtsv, dpttrf, dpttrs
    from scipy.special import ive, kve
