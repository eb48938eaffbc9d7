"""The two LAPACK routines logdiff calls, loaded without scipy.linalg's package init.

dgtsv solves the solver's Newton systems and grid's resolvent, and dtbtrs
makes grid's triangular sweeps on the closed-form factor of -Lap_h.
scipy.linalg's package init loads scipy's array-API layer, and with it
numpy.f2py, numpy.testing and numpy.ma, which costs more than numpy's own
import.  So the f2py module that holds the routines, scipy/linalg/_flapack,
is loaded by its file path.  If that fails, for example because a scipy
release moved the private module, the routines come from
scipy.linalg.lapack, the public module that wraps the same extension.
"""

from __future__ import annotations

import importlib.util
import os
import sysconfig

import scipy


def load(path) -> tuple:
    """(dgtsv, dtbtrs) from the extension at path, else scipy.linalg.lapack."""
    try:
        spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
        if spec is None:
            raise ImportError(f"no extension loader for {path}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.dgtsv, module.dtbtrs
    except (ImportError, AttributeError):
        from scipy.linalg import lapack

        return lapack.dgtsv, lapack.dtbtrs


FLAPACK_PATH = os.path.join(
    os.path.dirname(scipy.__file__), "linalg", "_flapack" + sysconfig.get_config_var("EXT_SUFFIX"))

dgtsv, dtbtrs = load(FLAPACK_PATH)
