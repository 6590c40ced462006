"""Domain-wall partition functions of rational pairing models with one arbitrary spin.

Exact-rational and float kernels for the permanent and determinant routes
to the partition function, the log-derivative hierarchy they contract
against, solvers for the quadratic and rapidity Bethe equations, and
executable verification of the residue/limit proof obligations.

The package namespace carries the names of the README's library example;
everything else is imported from its submodule (``rgdwpf.partition``,
``rgdwpf.checks``, ``rgdwpf.gamma``, ``rgdwpf.linalg``, ``rgdwpf.bethe``,
``rgdwpf.errors``).
"""

from .checks import identity_sweep
from .partition import SpinSystem, z_determinant, z_permanent

__version__ = "0.1.0"
