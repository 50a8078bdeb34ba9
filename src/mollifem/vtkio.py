"""Legacy ASCII VTK output for meshes, solutions and indicator fields."""
from __future__ import annotations

import numpy as np

from .mesh import Mesh

_CHUNK_ROWS = 1 << 16  # rows formatted per write: the text stays bounded


def write_vtk(path, mesh: Mesh, point_data: dict | None = None,
              cell_data: dict | None = None) -> None:
    """Write the active triangulation as an unstructured grid (cell type 5).

    `point_data` maps field names to per-vertex arrays, `cell_data` to
    per-active-cell arrays; both become scalar fields. Floats are written
    with ``%.17g``, so they read back exactly. Every field is checked before
    the file is opened.
    """
    n = mesh.num_vertices
    m = mesh.num_cells
    # (text, row template, table): the text, then one row per table row
    items = [("# vtk DataFile Version 3.0\nmollifem output\nASCII\n"
              f"DATASET UNSTRUCTURED_GRID\nPOINTS {n} double\n",
              "%.17g %.17g 0\n", mesh.coords),
             (f"CELLS {m} {4 * m}\n", "3 %d %d %d\n", mesh.triangles),
             (f"CELL_TYPES {m}\n", "5\n", np.empty((m, 0)))]
    for block, count, header in ((cell_data, m, "CELL_DATA"),
                                 (point_data, n, "POINT_DATA")):
        for i, (name, values) in enumerate((block or {}).items()):
            arr = np.asarray(values, dtype=np.float64).reshape(-1, 1)
            if len(arr) != count:
                raise ValueError(
                    f"field {name!r} has {len(arr)} values, expected {count}")
            head = f"{header} {count}\n" if i == 0 else ""
            items.append((f"{head}SCALARS {name} double 1\nLOOKUP_TABLE "
                          "default\n", "%.17g\n", arr))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for text, template, table in items:
            fh.write(text)
            # one %-template over Python scalars per chunk, not one format
            # per value
            for lo in range(0, len(table), _CHUNK_ROWS):
                part = table[lo:lo + _CHUNK_ROWS]
                fh.write(template * len(part) % tuple(part.ravel().tolist()))
