"""Adaptive P1 finite elements for elliptic problems with a line source on
an immersed curve, approximated by mollified Dirac densities."""

from .afem import (AfemParams, RunRecord, RunRow, data_loop, interface_loop,
                   mark, solve)
from .config import ExperimentConfig, preset
from .curves import Curve, SegmentedData, interface_cells
from .errors import NonTerminationError, NumericalError
from .estimate import IndicatorSet, estimate, jump_indicator_sq
from .fem import (DiscreteSystem, ErrorIntegrator, FeFunction, assemble,
                  energy_error, form_matrix, prolong, solve_galerkin)
from .forcing import (DensityForcing, Kernel, LineForcing, RegularizedForcing,
                      kernel_moment_check, r_of_tau)
from .mesh import Mesh, lshape_mesh, rect_mesh
from .problems import (TestProblem, lshape_problem, make_problem,
                       smooth_problem, square_problem)
from .vtkio import write_vtk

__version__ = "0.1.0"

__all__ = [
    "AfemParams", "Curve", "DensityForcing", "DiscreteSystem",
    "ErrorIntegrator", "ExperimentConfig", "FeFunction", "IndicatorSet",
    "Kernel", "LineForcing", "Mesh", "NonTerminationError", "NumericalError",
    "RegularizedForcing", "RunRecord", "RunRow", "SegmentedData",
    "TestProblem", "assemble", "data_loop", "energy_error", "estimate",
    "form_matrix", "interface_cells", "interface_loop", "jump_indicator_sq",
    "kernel_moment_check", "lshape_mesh", "lshape_problem", "make_problem",
    "mark", "preset", "prolong", "r_of_tau", "rect_mesh", "smooth_problem",
    "solve", "solve_galerkin", "square_problem", "write_vtk",
]
