"""Domain-wall partition functions of rational pairing models with one arbitrary spin.

Kernels for the permanent route (exact and float) and the determinant
route (exact; float inputs get Z rounded once), the hierarchy they
contract against, quadratic and rapidity Bethe solvers, and executable
verification of the residue/limit obligations.

The package namespace carries the names of the README's library example;
everything else is imported from its submodule (``rgdwpf.partition``,
``rgdwpf.checks``, ``rgdwpf.gamma``, ``rgdwpf.linalg``, ``rgdwpf.bethe``,
``rgdwpf.errors``).
"""

from .checks import identity_sweep
from .partition import SpinSystem, z_determinant, z_permanent

__version__ = "0.1.0"
