"""Bit-identity of the per-node geometry kernels with the numpy calls they replace.

The sphere split search and face assignment avoid np.cross, np.linalg.norm
and reductions over length-3 axes, whose per-call overhead dominated the
fit.  Each replacement must give exactly the numpy result, so partitions
stay bit-identical; these tests compare with np.array_equal.
"""

import numpy as np
import pytest

from uhwt import assign_faces, geodesic_midpoint, icosahedron
from uhwt.core import (
    BOUNDARY_EPS,
    _cross3,
    _min3,
    tri_contains_many,
    tri_edge_normals,
)
from uhwt.signals import sphere_test_grid
from uhwt.sphere import haar_rotation
from uhwt.sphere_geom import _cross_rows, _norm, _norm_rows

BASE = icosahedron()


def random_rows(rng, k):
    """Rows of mixed sign and magnitude, so rounding is exercised."""
    return rng.standard_normal((k, 3)) * 10.0 ** rng.uniform(-6, 3, size=(k, 1))


def reference_assign_faces(triangulation, points, eps=BOUNDARY_EPS):
    """assign_faces as first written: einsum, then min over the length-3 axis."""
    normals = np.stack([
        np.cross(triangulation.face_vertices(j), np.roll(triangulation.face_vertices(j), -1, axis=0))
        for j in range(triangulation.n_faces)
    ])
    dets = np.einsum("fkd,md->mfk", normals, points)
    mind = dets.min(axis=2)
    ok = mind >= -eps
    idx = np.argmax(ok, axis=1)
    homeless = ~ok.any(axis=1)
    if np.any(homeless):
        idx[homeless] = mind[homeless].argmax(axis=1)
    return idx, homeless


def edge_midpoints():
    out = []
    for face in BASE.faces:
        for e in range(3):
            s = BASE.vertices[face[e]] + BASE.vertices[face[(e + 1) % 3]]
            out.append(s / np.linalg.norm(s))
    return np.array(out)


class TestCross:
    def test_single_vectors_random(self):
        rng = np.random.default_rng(0)
        a, b = random_rows(rng, 2000), random_rows(rng, 2000)
        for x, y in zip(a, b):
            assert np.array_equal(np.array(_cross3(x.tolist(), y.tolist())), np.cross(x, y))

    def test_single_vectors_icosahedron(self):
        verts = BASE.vertices
        for x in verts:
            for y in verts:
                assert np.array_equal(np.array(_cross3(x.tolist(), y.tolist())), np.cross(x, y))

    def test_rows_and_broadcast(self):
        rng = np.random.default_rng(1)
        a, b = random_rows(rng, 500), random_rows(rng, 500)
        v = random_rows(rng, 1)[0]
        assert np.array_equal(_cross_rows(a, b), np.cross(a, b))
        assert np.array_equal(_cross_rows(v, b), np.cross(v, b))
        assert np.array_equal(_cross_rows(a, v), np.cross(a, v))
        assert np.array_equal(_cross_rows(BASE.vertices, np.roll(BASE.vertices, 3, axis=0)),
                              np.cross(BASE.vertices, np.roll(BASE.vertices, 3, axis=0)))

    def test_tri_edge_normals(self):
        rng = np.random.default_rng(2)
        tris = [BASE.face_vertices(j) for j in range(20)] + [random_rows(rng, 3) for _ in range(200)]
        for verts in tris:
            assert np.array_equal(tri_edge_normals(verts), np.cross(verts, np.roll(verts, -1, axis=0)))


class TestNormsAndMinima:
    def test_vector_norm(self):
        rng = np.random.default_rng(3)
        for v in random_rows(rng, 2000):
            assert _norm(v) == np.linalg.norm(v)

    def test_row_norms(self):
        rng = np.random.default_rng(4)
        for k in (1, 2, 3, 7, 64, 1000):
            rows = random_rows(rng, k)
            assert np.array_equal(_norm_rows(rows), np.linalg.norm(rows, axis=1))

    def test_geodesic_midpoint(self):
        rng = np.random.default_rng(5)
        a, b = random_rows(rng, 500), random_rows(rng, 500)
        for x, y in zip(a, b):
            s = x + y
            assert np.array_equal(geodesic_midpoint(x, y), s / np.linalg.norm(s))

    def test_min_of_three(self):
        rng = np.random.default_rng(6)
        dets = random_rows(rng, 1000).reshape(100, 10, 3)
        dets[0, 0] = [0.0, -0.0, 1.0]
        assert np.array_equal(_min3(dets), dets.min(axis=2))

    def test_tri_contains_many(self):
        points, _ = sphere_test_grid("fig5", 3000, 2)
        for j in range(20):
            verts = BASE.face_vertices(j)
            want = (points @ np.cross(verts, np.roll(verts, -1, axis=0)).T).min(axis=1) >= -BOUNDARY_EPS
            assert np.array_equal(tri_contains_many(verts, points), want)


class TestAssignFaces:
    @pytest.mark.parametrize("rotation_seed", range(20))
    def test_matches_reference_on_rotated_test_grid(self, rotation_seed):
        points, _ = sphere_test_grid("fig5", 15300, 1)
        rotated = points @ haar_rotation(np.random.default_rng(rotation_seed)).T
        want, _ = reference_assign_faces(BASE, rotated)
        assert np.array_equal(assign_faces(BASE, rotated), want)

    def test_vertices_and_edge_midpoints_tie_to_smallest_face(self):
        points = np.concatenate([BASE.vertices, edge_midpoints()])
        got = assign_faces(BASE, points)
        want, _ = reference_assign_faces(BASE, points)
        assert np.array_equal(got, want)
        for p, chosen in zip(points, got):
            containing = [
                j for j in range(20)
                if tri_contains_many(BASE.face_vertices(j), p[None, :])[0]
            ]
            assert len(containing) >= 2  # every such point lies on a shared boundary
            assert chosen == min(containing)

    def test_homeless_point_takes_the_same_fallback(self):
        # a negative slack makes a vertex fail every face's containment test
        eps = -1e-6
        point = BASE.vertices[4][None, :]
        want, homeless = reference_assign_faces(BASE, point, eps=eps)
        assert homeless.all()
        assert np.array_equal(assign_faces(BASE, point, eps=eps), want)
