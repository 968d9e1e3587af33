import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))


def pytest_report_header(config):
    """The BLAS thread settings and library versions of this run: one golden
    prints a digit that moves with the BLAS summation order."""
    import numpy
    import scipy

    threads = ", ".join(f"{name}={os.environ.get(name, 'unset')}" for name in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    return [f"BLAS threads: {threads}", f"numpy {numpy.__version__}, scipy {scipy.__version__}"]
