"""Multi-environment FDD-OFDM physical-layer secret key generation lab."""

import os as _os
import sys as _sys

# One BLAS thread per call, so that independent trainings can run on separate
# cores (fdkg.pipeline).  BLAS reads these when numpy loads it; if numpy came
# first, or a variable is set to anything but 1, they run one after another.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_BLAS_PINNED = "numpy" not in _sys.modules
if _BLAS_PINNED:
    for _var in _BLAS_VARS:
        _os.environ.setdefault(_var, "1")
    _BLAS_PINNED = all(_os.environ[_var] == "1" for _var in _BLAS_VARS)

from .pipeline import ExperimentConfig, desk_profile

__version__ = "0.1.0"
