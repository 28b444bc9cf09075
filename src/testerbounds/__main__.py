"""The ``testerbounds`` command, also run as ``python -m testerbounds``.

This module imports no numpy: it settles the BLAS thread count before ``cli``
loads numpy, since OpenBLAS reads it once, when numpy starts it.
"""

import os
import sys

# variables by which OpenBLAS takes its thread count, in its order of precedence
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def one_blas_thread(environ) -> None:
    """Set ``OPENBLAS_NUM_THREADS=1`` in ``environ`` unless it sets a thread count already.

    The command's products are of matrices of a few hundred rows at most.  In
    a fresh process a second OpenBLAS thread made them slower, not faster: a
    25x25 by 25x1250 complex product took 16 ms for about the first second of
    the run, against 0.2 ms on one thread (2-core x86_64, OpenBLAS 0.3.31).
    """
    if not any(name in environ for name in THREAD_VARIABLES):
        environ["OPENBLAS_NUM_THREADS"] = "1"


def main() -> None:
    one_blas_thread(os.environ)
    from .cli import main as run

    sys.exit(run())


if __name__ == "__main__":
    main()
