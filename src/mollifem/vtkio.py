"""Legacy ASCII VTK output for meshes, solutions and indicator fields."""
from __future__ import annotations

import numpy as np

from .mesh import Mesh


def write_vtk(path, mesh: Mesh, point_data: dict | None = None,
              cell_data: dict | None = None, title: str = "mollifem output") -> None:
    """Write the active triangulation as an unstructured grid (cell type 5).

    `point_data` maps field names to per-vertex arrays, `cell_data` to
    per-active-cell arrays; both become scalar fields. Floats are written
    with ``%.17g``, so they read back exactly.
    """
    n = mesh.num_vertices
    m = mesh.num_cells
    # each block is one %-template over Python scalars, not one format per value
    parts = [
        "# vtk DataFile Version 3.0\n"
        f"{title}\nASCII\nDATASET UNSTRUCTURED_GRID\nPOINTS {n} double\n",
        "%.17g %.17g 0\n" * n % tuple(mesh.coords.ravel().tolist()),
        f"CELLS {m} {4 * m}\n",
        "3 %d %d %d\n" * m % tuple(mesh.triangles.ravel().tolist()),
        f"CELL_TYPES {m}\n" + "5\n" * m,
    ]

    def emit(block: dict, count: int, header: str):
        parts.append(f"{header} {count}\n")
        for name, values in block.items():
            arr = np.asarray(values, dtype=np.float64).ravel()
            if len(arr) != count:
                raise ValueError(
                    f"field {name!r} has {len(arr)} values, expected {count}")
            parts.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            parts.append("%.17g\n" * count % tuple(arr.tolist()))

    if cell_data:
        emit(cell_data, m, "CELL_DATA")
    if point_data:
        emit(point_data, n, "POINT_DATA")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("".join(parts))
