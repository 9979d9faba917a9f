"""The five compiled kernels the package calls, taken from libraries that are
already loaded wherever they can be.

``dgtsv`` takes the backward-Euler porous-medium steps, and ``dpttrf`` and
``dpttrs`` factor and solve the tridiagonal Poincare pencil and the Rayleigh
preconditioner.  They are bound with ``ctypes`` from the ILP64 LAPACK that
numpy's own ``numpy.linalg._umath_linalg`` links (scipy-openblas64 in numpy's
wheels, whose symbols are ``scipy_dgtsv_64_`` and so on, with 64-bit
integers).  ``ctypes.CDLL`` of that module's file returns the handle of the
loaded module, and a symbol lookup through the handle also searches the
libraries it depends on, so no path is guessed and no second LAPACK is
mapped.  Where numpy links a LAPACK without those symbols (Accelerate, MKL,
a system BLAS), the same routines come from scipy's ``scipy.linalg._flapack``,
loaded bare (see below), and failing that from ``scipy.linalg.lapack``.

``ive`` and ``kve`` give the closed-form power-law warping.  They live in
``scipy.special._special_ufuncs``.  Importing ``scipy.special`` or
``scipy.linalg`` would first run the package ``__init__`` files, and through
``scipy._lib._array_api`` import ``numpy.testing``, ``numpy.f2py`` and
``numpy.ma``: most of the import time of the command line and about 20 MB
of memory.  So the extension module is loaded from its file and registered
in ``sys.modules`` under its own name, where a later ``import scipy.special``
finds it and reuses it.  Where that fails (scipy before 1.15 has no
``_special_ufuncs``), the public import serves.

The LAPACK routines are offered in the shape the hot loops need:
``dpttrf(d, e)`` returns the factor in new arrays and LAPACK's ``info``, as
scipy's wrapper does, while ``gtsv_solver`` and ``pttrs_solver`` bind the
addresses of their arrays once and return a solver that works on them in
place, so a Newton or descent step pays no conversion of its arguments.
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


def _numpy_lapack():
    """``dgtsv``, ``dpttrf`` and ``dpttrs`` of the LAPACK that numpy links,
    as ``ctypes`` functions; AttributeError where it lacks the symbols."""
    from numpy.linalg import _umath_linalg

    library = ctypes.CDLL(_umath_linalg.__file__)
    routines = (library.scipy_dgtsv_64_, library.scipy_dpttrf_64_,
                library.scipy_dpttrs_64_)
    for routine in routines:
        # no argtypes: converting them costs 2-3 us a call, about a third of a
        # 200-cell solve, so the solvers check dtype, layout and sizes once
        routine.restype = None
    return routines


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
    _dgtsv, _dpttrf, _dpttrs = _numpy_lapack()
except (ImportError, AttributeError, OSError):  # numpy links another LAPACK
    _dgtsv = None
    try:
        _flapack = _load_bare("scipy.linalg._flapack")
    except (ImportError, AttributeError):
        from scipy.linalg import lapack as _flapack

if _dgtsv is not None:
    def _pointer(a):
        return a.ctypes.data_as(ctypes.c_void_p)  # holds a reference to a

    def dpttrf(d, e):
        """(d, e, info) of LAPACK dpttrf on copies of the diagonal d and the
        off-diagonal e: the L D L^T factor, and info 0 when the matrix is
        positive definite."""
        d, e = np.array(d, float), np.array(e, float)
        n, info = ctypes.c_int64(_length(d, (e,), ())), ctypes.c_int64()
        _dpttrf(ctypes.byref(n), _pointer(d), _pointer(e), ctypes.byref(info))
        return d, e, info.value

    def gtsv_solver(dl, d, du, b):
        """solve(k): LAPACK dgtsv on the leading k <= len(d) entries of the
        sub-, main and super-diagonal dl, d, du and the right-hand side b,
        all four overwritten (b by the solution); returns LAPACK's info."""
        size = _length(d, (dl, du), (b,))
        n, nrhs, info = ctypes.c_int64(), ctypes.c_int64(1), ctypes.c_int64()
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
        n = ctypes.c_int64(_length(d, (e,), (b,)))
        nrhs, info = ctypes.c_int64(1), ctypes.c_int64()
        args = (ctypes.byref(n), ctypes.byref(nrhs), _pointer(d), _pointer(e),
                _pointer(b), ctypes.byref(n), ctypes.byref(info))

        def solve():
            _dpttrs(*args)
            return info.value

        return solve

else:  # the same three over scipy's f2py wrappers
    dpttrf = _flapack.dpttrf

    def gtsv_solver(dl, d, du, b):
        size = _length(d, (dl, du), (b,))

        def solve(k):
            if not 0 < k <= size:
                raise ValueError(f"system size {k} outside [1, {size}]")
            off = max(k - 1, 1)  # f2py wants an off-diagonal entry even at k = 1
            *_, x, info = _flapack.dgtsv(dl[:off], d[:k], du[:off], b[:k], 1, 1, 1, 1)
            b[:k] = x  # a no-op where f2py honoured the overwrite flags
            return info

        return solve

    def pttrs_solver(d, e, b):
        _length(d, (e,), (b,))

        def solve():
            x, info = _flapack.dpttrs(d, e, b, 1)
            b[:] = x
            return info

        return solve
