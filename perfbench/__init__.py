"""perfbench: the repository's two-clock benchmark.

Every number is named after the clock it was read on: ``host_*`` is the
wall clock of this Python package on the machine that runs it, ``sim_*``
is the :mod:`repro.device` clock of a simulated V100.  The simulator has
no hardware reference in this repository, so the model is **unvalidated**
and no error figure is given.

Entry points (see ``perfbench/README.md``)::

    python -m perfbench run --seed 0            # every workload, every metric
    python -m perfbench run --seed 0 --traced   # plus the per-layer numbers
    python -m perfbench compare A.json B.json   # verdict per workload x metric
    python -m perfbench measure --workload sage_epoch --seed 0 --seconds 12 --trace 0

Importing this package imports nothing heavy; NumPy and ``repro`` are
only loaded inside the per-workload child process, after its BLAS/OpenMP
thread caps are in its environment.
"""

from __future__ import annotations

import pathlib

#: Checkout root: the directory that holds ``BENCHMARK.json``, ``src/``
#: and this package.
ROOT = pathlib.Path(__file__).resolve().parent.parent
