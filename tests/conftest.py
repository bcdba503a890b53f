"""Setup shared by the tests, run before any test module imports numpy."""

import os

# BLAS on one thread, as the bench pins it: the tests compare results bit for
# bit, and a BLAS that splits a product over its own threads rounds it
# according to how many it uses, so the bits would follow the machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
