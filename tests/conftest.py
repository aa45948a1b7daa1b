"""Test session setup: one BLAS thread, as in the benchmark harness.

The variables are set before numpy is first imported, unless the caller
already set them, so the suite runs at the thread count its timings and
byte-identity checks assume.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
