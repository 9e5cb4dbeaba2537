"""Icosahedral base triangulation of S^2 and geodesic triangle splitting.

Triangles are unit-vertex triples, counterclockwise seen from outside;
membership uses oriented-edge determinants with a 1e-12 slack (defined in
core.BOUNDARY_EPS), boundary ties resolved to the smallest face/child
index.  All operations here are pure and thread-safe.

Four splitting rules:
  balance      - bisect the longest edge at its geodesic midpoint, join
                 to the opposite vertex;
  adapt        - among the three mid-edge bisections, take the one with
                 the largest absolute detail coefficient;
  adapt_vertex - among all (edge, orthogonal projection of an interior
                 member) cuts, take the largest |w|;
  balance4     - connect the three edge midpoints; four children grouped
                 {corner0, central} vs {corner1, corner2}.

fan_split provides cuts at central-projection midpoints (the geodesic
analog of midpoints between consecutive distinct coordinates); it can
separate any two distinct member points and backs the fitter's
full-depth growth when a rule has no admissible candidate.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    BOUNDARY_EPS,
    _cross3,
    _cross_rows,
    _edge_cut,
    _min3,
    cut_coefficients,
    make_edge_split,
    make_quad_split,
    tri_contains_many,
    tri_edge_normals,
)
from .errors import AntipodalPointsError, DegenerateTriangleError

RULES = ("balance", "balance4", "adapt", "adapt_vertex")

_ENDPOINT_EPS = 1e-9  # cut points this close to an edge endpoint are dropped


@dataclass(frozen=True)
class Triangulation:
    """Vertices (unit 3-vectors) and faces (ccw vertex-index triples)."""

    vertices: np.ndarray
    faces: np.ndarray

    @property
    def n_faces(self):
        return self.faces.shape[0]

    def face_vertices(self, j):
        return self.vertices[self.faces[j]]

    @cached_property
    def _edge_normals(self):
        """(F, 3, 3) edge normals of every face, computed on first use."""
        return tri_edge_normals(self.vertices[self.faces])

    @cached_property
    def _normal_columns(self):
        """The edge normals as (3, 3F) columns, face-major, for one BLAS product."""
        return np.ascontiguousarray(self._edge_normals.reshape(-1, 3).T)


def icosahedron():
    """Canonical golden-ratio icosahedron, 12 unit vertices and 20 ccw faces."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    raw = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=np.float64)
    vertices = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=np.intp)
    # orient outward-counterclockwise: triple product positive
    for j in range(faces.shape[0]):
        a, b, c = vertices[faces[j]]
        if np.dot(_cross3(a.tolist(), b.tolist()), c) < 0:
            faces[j, [1, 2]] = faces[j, [2, 1]]
    return Triangulation(vertices, faces)


def triangle_contains(verts, point, eps=BOUNDARY_EPS):
    """True iff det[v_i, v_{i+1}, p] >= -eps for the three oriented edges."""
    point = np.asarray(point, dtype=np.float64).ravel()
    return bool(tri_contains_many(np.asarray(verts, dtype=np.float64), point[None, :], eps=eps)[0])


_RECHECK_BAND = 1e-9  # far above the ~1e-15 error of the BLAS determinants
# Blocks this small stay below OpenBLAS's threading threshold.  On 2 cores
# with one busy, one threaded product over 15,300 points took 8 ms; in
# blocks it took 0.7 ms, and the small blocks stay in cache.
_BLAS_ROWS = 1024


def assign_faces(triangulation, points, eps=BOUNDARY_EPS):
    """Face index per point; boundary ties go to the smallest face id.

    Points that numerically fail every face (possible only through
    rounding at corners) fall back to the face with the largest minimum
    edge determinant.  The determinants come from BLAS products over
    blocks of points; the points with no passing face or with a face's
    minimum within _RECHECK_BAND of -eps are recomputed with the exact
    per-row einsum, so every pass/fail pattern and fallback is the
    einsum's own.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    normals = triangulation._edge_normals
    mind = np.empty(points.shape[:1] + normals.shape[:1])
    for a in range(0, points.shape[0], _BLAS_ROWS):
        dets = points[a:a + _BLAS_ROWS] @ triangulation._normal_columns
        mind[a:a + _BLAS_ROWS] = _min3(dets.reshape(-1, normals.shape[0], 3))
    ok = mind >= -eps
    near = (~ok.any(axis=1)) | (np.abs(mind + eps) <= _RECHECK_BAND).any(axis=1)
    if np.any(near):
        rows = np.flatnonzero(near)
        mind[rows] = _min3(np.einsum("fkd,md->mfk", normals, points[rows]))
        ok[rows] = mind[rows] >= -eps
    idx = np.argmax(ok, axis=1)  # first passing face
    homeless = ~ok.any(axis=1)
    if np.any(homeless):
        idx[homeless] = mind[homeless].argmax(axis=1)
    return idx


def arc_length(a, b):
    return float(np.arccos(np.clip(np.dot(a, b), -1.0, 1.0)))


def _norm(v):
    """np.linalg.norm of a 1-D vector: the same dot product and square root."""
    return math.sqrt(v.dot(v))


def _norm_rows(rows):
    """np.linalg.norm(rows, axis=1) for (k, 3) rows, summed left to right."""
    sq = rows * rows
    return np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2])


def geodesic_midpoint(a, b):
    """normalize(a + b); undefined for antipodal inputs."""
    s = np.asarray(a, dtype=np.float64) + np.asarray(b, dtype=np.float64)
    norm = _norm(s)
    if norm < 1e-9:
        raise AntipodalPointsError("midpoint of antipodal points is undefined")
    return s / norm


def project_to_edge(point, va, vb):
    """Orthogonal (great-circle) projection of a point onto the arc [va, vb].

    Returns None when the projection falls outside the arc or when the
    point is within 1e-9 of the edge-plane pole (projection undefined).
    """
    point = np.asarray(point, dtype=np.float64)
    normal = np.array(_cross3(np.asarray(va, dtype=np.float64).tolist(),
                              np.asarray(vb, dtype=np.float64).tolist()))
    normal = normal / _norm(normal)
    if min(_norm(point - normal), _norm(point + normal)) < _ENDPOINT_EPS:
        return None
    flat = point - np.dot(point, normal) * normal
    size = _norm(flat)
    if size < 1e-12:
        return None
    q = flat / size
    if abs(arc_length(va, q) + arc_length(q, vb) - arc_length(va, vb)) > 1e-9:
        return None
    return q


def spherical_area(verts):
    """Girard spherical excess: sum of interior angles minus pi (steradians)."""
    verts = np.asarray(verts, dtype=np.float64).reshape(3, 3)
    angles = []
    for i in range(3):
        a = verts[i]
        t1 = verts[(i + 1) % 3] - np.dot(verts[(i + 1) % 3], a) * a
        t2 = verts[(i + 2) % 3] - np.dot(verts[(i + 2) % 3], a) * a
        n1, n2 = np.linalg.norm(t1), np.linalg.norm(t2)
        if n1 < 1e-12 or n2 < 1e-12:
            raise DegenerateTriangleError("interior angle undefined")
        angles.append(math.acos(float(np.clip(np.dot(t1, t2) / (n1 * n2), -1.0, 1.0))))
    return float(sum(angles) - math.pi)


def _admissible(split, n_min):
    return all(child.mass >= n_min for child in split.children)


def _edge_candidates_mid(verts):
    """(edge, geodesic midpoint) for each of the three edges."""
    return [
        (e, geodesic_midpoint(verts[e], verts[(e + 1) % 3]))
        for e in range(3)
    ]


def split_triangle(cell, rule, dataset, responses, n_min=1):
    """Apply one of the four rules to a triangle cell.

    Candidates whose children fall below n_min members are rejected;
    returns None when no admissible candidate remains.  Tie-breaks are
    total orders: lowest edge index, then candidate enumeration order.
    """
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}")
    if cell.mass < 2:
        return None
    verts = cell.triangles[0]
    locations = dataset.locations

    if rule == "balance":
        lengths = [arc_length(verts[e], verts[(e + 1) % 3]) for e in range(3)]
        e = int(np.argmax(lengths))  # first max = lowest edge index on ties
        split = make_edge_split(cell, locations, e, geodesic_midpoint(verts[e], verts[(e + 1) % 3]))
        return split if _admissible(split, n_min) else None

    if rule == "balance4":
        midpoints = np.stack([geodesic_midpoint(verts[j], verts[(j + 1) % 3]) for j in range(3)])
        split = make_quad_split(cell, locations, midpoints)
        return split if _admissible(split, n_min) else None

    if rule == "adapt":
        candidates = _edge_candidates_mid(verts)
    else:  # adapt_vertex
        candidates = []
        members = cell.members
        for e in range(3):
            va, vb = verts[e], verts[(e + 1) % 3]
            for i in members:
                xi = project_to_edge(locations[i], va, vb)
                if xi is None:
                    continue
                if arc_length(xi, va) < _ENDPOINT_EPS or arc_length(xi, vb) < _ENDPOINT_EPS:
                    continue
                candidates.append((e, xi))

    points = locations[cell.members]
    values = np.asarray(responses, dtype=np.float64)[cell.members]
    total = values.sum()
    k = points.shape[0]
    best = None
    for e, xi in candidates:
        # same determinant rule make_edge_split applies to the winner
        normal, mask = _edge_cut(verts, e, xi, points)
        n_plus = int(mask.sum())
        n_minus = k - n_plus
        if n_plus < n_min or n_minus < n_min:
            continue
        sum_plus = values[mask].sum()
        # scalar float w, not cut_coefficients: for a few candidates per node
        # numpy's per-call overhead costs more than the arithmetic
        w = math.sqrt(n_plus * n_minus / k) * (sum_plus / n_plus - (total - sum_plus) / n_minus)
        if best is None or abs(w) > best[0]:
            best = (abs(w), e, xi, (normal, mask))
    if best is None:
        return None
    return make_edge_split(cell, locations, best[1], best[2], _cut=best[3])


def _fan_projections(verts, edge, points):
    """Central projections of points onto an edge from the opposite vertex.

    Returns (directions, angles): unit vectors on the edge arc and their
    angle from the first edge vertex; rows with undefined projection carry
    NaN angles.
    """
    va, vb = verts[edge], verts[(edge + 1) % 3]
    vopp = verts[(edge + 2) % 3]
    n_edge = np.array(_cross3(va.tolist(), vb.tolist()))
    n_edge = n_edge / _norm(n_edge)
    rays = _cross_rows(_cross_rows(vopp, points), n_edge)  # (k, 3)
    sizes = _norm_rows(rays)
    good = sizes > 1e-12
    dirs = np.zeros_like(rays)
    dirs[good] = rays[good] / sizes[good, None]
    # pick the intersection on the near arc
    flip = dirs @ (va + vb) < 0
    dirs[flip] *= -1.0
    t_axis = np.array(_cross3(n_edge.tolist(), va.tolist()))
    angles = np.arctan2(dirs @ t_axis, dirs @ va)
    angles[~good] = np.nan
    return dirs, angles


def fan_split(cell, dataset, responses, n_min=1):
    """Best |w| cut among central-projection midpoints over the three edges.

    The candidate family separates any two members not co-geodesic with
    every vertex, so full-depth growth can always reach singleton leaves.
    """
    if cell.mass < 2:
        return None
    verts = cell.triangles[0]
    points = dataset.locations[cell.members]
    values = np.asarray(responses, dtype=np.float64)[cell.members]
    cuts, scan_dirs = [], {}  # (edge, boundary positions k, their w); directions in scan order
    for e in range(3):
        dirs, angles = _fan_projections(verts, e, points)
        n = int(np.isfinite(angles).sum())
        if n < 2:
            continue
        scan = np.argsort(angles, kind="stable")[:n]  # NaN angles sort last
        gaps = np.nonzero(np.diff(angles[scan]) > 1e-12)[0]
        if n_min > 1:  # every gap leaves at least one member on each side
            gaps = gaps[(gaps + 1 >= n_min) & (n - 1 - gaps >= n_min)]
        scan_dirs[e] = dirs[scan]
        cuts.append((e, gaps, cut_coefficients(np.cumsum(values[scan]), gaps)))
    if not cuts:
        return None
    w = np.concatenate([cut[2] for cut in cuts])
    edges = np.repeat([cut[0] for cut in cuts], [cut[1].size for cut in cuts])
    ks = np.concatenate([cut[1] for cut in cuts])
    # cuts are laid out in (edge, k) order, so a stable sort on -|w| ranks them by (-|w|, edge, k)
    for j in np.argsort(-np.abs(w), kind="stable"):
        e, k = int(edges[j]), int(ks[j])
        split = make_edge_split(cell, dataset.locations, e,
                                geodesic_midpoint(scan_dirs[e][k], scan_dirs[e][k + 1]))
        if _admissible(split, n_min):
            return split
    return None
