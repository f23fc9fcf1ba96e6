"""Console-script entry.

Numeric kernels are pinned to one BLAS thread before numpy loads so that a
fixed seed gives byte-identical reports regardless of the machine's thread
count.
"""

import os


def main() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    from .cli import main as cli_main
    cli_main()
