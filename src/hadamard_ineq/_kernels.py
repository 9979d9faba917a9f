"""The five compiled kernels the package calls, taken from libraries that are
already loaded wherever they can be.

``dgtsv`` takes the backward-Euler porous-medium steps, and ``dpttrf`` and
``dpttrs`` factor and solve the tridiagonal Poincare pencil and the Rayleigh
preconditioner.  They are bound once, with ``ctypes``, from one of two
sources of their addresses.  The first is the ILP64 LAPACK that numpy's own
``numpy.linalg._umath_linalg`` links (scipy-openblas64 in numpy's wheels,
whose symbols are ``scipy_dgtsv_64_`` and so on, with 64-bit integers).
``ctypes.CDLL`` of that module's file returns the handle of the loaded
module, and a symbol lookup through the handle also searches the libraries
it depends on, so no path is guessed and no second LAPACK is mapped.  Where
numpy links a LAPACK without those symbols (Accelerate, MKL, a system BLAS),
the addresses come from the ``_cpointer`` capsules of scipy's f2py wrappers
in ``scipy.linalg._flapack``, loaded bare (see below), and failing that in
``scipy.linalg.lapack``; that LAPACK takes 32-bit integers.  The integer
type is all that differs between the two.

``ive`` and ``kve`` give the closed-form power-law warping.  They live in
``scipy.special._special_ufuncs``.  Importing ``scipy.special`` or
``scipy.linalg`` would first run the package ``__init__`` files, and through
``scipy._lib._array_api`` import ``numpy.testing``, ``numpy.f2py`` and
``numpy.ma``: most of the import time of the command line and about 20 MB
of memory.  So the extension module is loaded from its file and registered
in ``sys.modules`` under its own name, where a later ``import scipy.special``
finds it and reuses it.  Where that fails (scipy before 1.15 has no
``_special_ufuncs``), the public import serves.

One set of LAPACK functions serves both sources.  ``dpttrf(d, e)`` returns
the factor in new arrays and LAPACK's ``info``, as scipy's wrapper does,
while ``gtsv_solver`` and ``pttrs_solver`` bind the addresses of their
arrays once and return a solver that works on them in place, so a Newton or
descent step pays no conversion of its arguments.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np


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


_ROUTINES = ("dgtsv", "dpttrf", "dpttrs")


def _numpy_lapack():
    """The LAPACK that numpy links: its name, its integer type and its
    ``dgtsv``, ``dpttrf`` and ``dpttrs``; AttributeError where it lacks the
    symbols."""
    from numpy.linalg import _umath_linalg

    library = ctypes.CDLL(_umath_linalg.__file__)
    routines = [getattr(library, f"scipy_{name}_64_") for name in _ROUTINES]
    for routine in routines:
        # no argtypes: converting them costs 2-3 us a call, about a third of a
        # 200-cell solve, so the solvers check dtype, layout and sizes once
        routine.restype = None
    return "numpy's scipy-openblas64", ctypes.c_int64, routines


def _scipy_lapack():
    """The same three from scipy's LAPACK, at the addresses that the capsules
    of scipy's f2py wrappers hold, with 32-bit integers."""
    try:
        flapack = _load_bare("scipy.linalg._flapack")
    except (ImportError, AttributeError):
        from scipy.linalg import lapack as flapack
    address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    routines = [ctypes.CFUNCTYPE(None)(address(getattr(flapack, name)._cpointer, None))
                for name in _ROUTINES]
    return flapack.__name__, ctypes.c_int, routines


def _length(d, off_diagonals, right_sides):
    """len(d), once d, the off-diagonals (at least len(d) - 1 entries) and
    the right-hand sides (at least len(d)) are writeable contiguous 1-d
    float64 arrays, on which LAPACK may work in place."""
    n = len(d)
    for a, least in ((d, n), *((a, n - 1) for a in off_diagonals),
                     *((b, n) for b in right_sides)):
        if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.ndim == 1
                and a.flags.c_contiguous and a.flags.writeable and len(a) >= least):
            raise ValueError("LAPACK needs writeable contiguous 1-d float64 arrays, "
                             "the off-diagonals len(d) - 1 long, the rest len(d)")
    return n


try:
    _special = _load_bare("scipy.special._special_ufuncs")
    ive, kve = _special.ive, _special.kve
except (ImportError, AttributeError):  # an older or differently laid out scipy
    from scipy.special import ive, kve

try:
    _lapack, _int, (_dgtsv, _dpttrf, _dpttrs) = _numpy_lapack()
except (ImportError, AttributeError, OSError):  # numpy links another LAPACK
    _lapack, _int, (_dgtsv, _dpttrf, _dpttrs) = _scipy_lapack()


def _pointer(a):
    return a.ctypes.data_as(ctypes.c_void_p)  # holds a reference to a


def dpttrf(d, e):
    """(d, e, info) of LAPACK dpttrf on copies of the diagonal d and the
    off-diagonal e: the L D L^T factor, and info 0 when the matrix is
    positive definite."""
    d, e = np.array(d, float), np.array(e, float)
    n, info = _int(_length(d, (e,), ())), _int()
    _dpttrf(ctypes.byref(n), _pointer(d), _pointer(e), ctypes.byref(info))
    return d, e, info.value


def gtsv_solver(dl, d, du, b):
    """solve(k): LAPACK dgtsv on the leading k <= len(d) entries of the
    sub-, main and super-diagonal dl, d, du and the right-hand side b, all
    four overwritten (b by the solution); returns LAPACK's info."""
    size = _length(d, (dl, du), (b,))
    n, nrhs, info = _int(), _int(1), _int()
    args = (ctypes.byref(n), ctypes.byref(nrhs), _pointer(dl), _pointer(d),
            _pointer(du), _pointer(b), ctypes.byref(n), ctypes.byref(info))

    def solve(k):
        if not 0 < k <= size:
            raise ValueError(f"system size {k} outside [1, {size}]")
        n.value = k
        _dgtsv(*args)
        return info.value

    return solve


def pttrs_solver(d, e, b):
    """solve(): overwrite b with the solution of the system whose dpttrf
    factor is (d, e); returns LAPACK's info."""
    n = _int(_length(d, (e,), (b,)))
    nrhs, info = _int(1), _int()
    args = (ctypes.byref(n), ctypes.byref(nrhs), _pointer(d), _pointer(e),
            _pointer(b), ctypes.byref(n), ctypes.byref(info))

    def solve():
        _dpttrs(*args)
        return info.value

    return solve
