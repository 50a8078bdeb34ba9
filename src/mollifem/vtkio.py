"""Legacy binary VTK output for meshes, solutions and indicator fields."""
from __future__ import annotations

import numpy as np

from .mesh import Mesh


def write_vtk(path, mesh: Mesh, point_data: dict | None = None,
              cell_data: dict | None = None) -> None:
    """Write the active triangulation as an unstructured grid (cell type 5).

    `point_data` maps field names to per-vertex arrays, `cell_data` to
    per-active-cell arrays; both become scalar fields. In the legacy BINARY
    mode each keyword line is followed by its block, big-endian ``>f8`` or
    ``>i4``, and a newline, so floats keep their exact bits. Every field is
    checked before the file is opened.
    """
    n = mesh.num_vertices
    m = mesh.num_cells
    points = np.zeros((n, 3), dtype=">f8")
    points[:, :2] = mesh.coords
    cells = np.full((m, 4), 3, dtype=">i4")
    cells[:, 1:] = mesh.triangles
    # (keyword lines, block): the lines, then the block's values
    items = [("# vtk DataFile Version 3.0\nmollifem output\nBINARY\n"
              f"DATASET UNSTRUCTURED_GRID\nPOINTS {n} double\n", points),
             (f"CELLS {m} {4 * m}\n", cells),
             (f"CELL_TYPES {m}\n", np.full(m, 5, dtype=">i4"))]
    for block, count, header in ((cell_data, m, "CELL_DATA"),
                                 (point_data, n, "POINT_DATA")):
        for i, (name, values) in enumerate((block or {}).items()):
            arr = np.asarray(values, dtype=">f8").reshape(-1)
            if len(arr) != count:
                raise ValueError(
                    f"field {name!r} has {len(arr)} values, expected {count}")
            head = f"{header} {count}\n" if i == 0 else ""
            items.append((f"{head}SCALARS {name} double 1\nLOOKUP_TABLE "
                          "default\n", arr))
    with open(path, "wb") as fh:
        for text, values in items:
            fh.write(text.encode("ascii"))
            values.tofile(fh)
            fh.write(b"\n")
