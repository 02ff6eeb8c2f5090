"""Computational workbench for finite quantum groups and windowed duals.

Validated Hopf *-algebra presets, convolution calculus for functionals,
corepresentation theory with Kazhdan-gap and GNS machinery, generating
functionals with their cocycle calculus, actions on finite von Neumann
algebras, and a truncated Fock layer for free-probability experiments.
"""

from .core import FiniteQG, DualBlockAlgebra, dense_image_report, solve_haar
from .errors import QGWBError
from .presets import load_preset, preset_names
from .serialize import load_qg
from .windows import GroupDualWindow, build_window

__version__ = "0.1.0"

__all__ = [
    "FiniteQG",
    "DualBlockAlgebra",
    "GroupDualWindow",
    "QGWBError",
    "build_window",
    "dense_image_report",
    "load_preset",
    "load_qg",
    "preset_names",
    "solve_haar",
    "__version__",
]
