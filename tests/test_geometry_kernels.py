"""Bit-identity of the per-node kernels with the code they replace.

The sphere split search and face assignment avoid np.cross, np.linalg.norm
and reductions over length-3 axes, whose per-call overhead dominated the
fit, and fan_split scores its cuts with one cut_coefficients call instead
of a per-cut Python loop.  Each replacement must give exactly the old
result, so partitions stay bit-identical; these tests compare with
np.array_equal.
"""

import math

import numpy as np
import pytest

from uhwt import assign_faces, fan_split, geodesic_midpoint, icosahedron, sphere_dataset
from uhwt.core import (
    BOUNDARY_EPS,
    _cross3,
    _min3,
    cut_coefficients,
    haar_coefficient,
    make_edge_split,
    tri_contains_many,
    tri_edge_normals,
    triangle_cell,
)
from uhwt.signals import generate_sphere_synthetic, sphere_test_grid
from uhwt.sphere import haar_rotation
from uhwt.sphere_geom import _cross_rows, _fan_projections, _norm, _norm_rows

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


def reference_fan_split(cell, dataset, responses, n_min=1):
    """fan_split as first written: one scalar w per cut, then a tuple sort."""
    verts = cell.triangles[0]
    points = dataset.locations[cell.members]
    values = np.asarray(responses, dtype=np.float64)[cell.members]
    ranked = []
    for e in range(3):
        dirs, angles = _fan_projections(verts, e, points)
        finite = np.isfinite(angles)
        n = int(finite.sum())
        if n < 2:
            continue
        order = np.argsort(angles[finite], kind="stable")
        dirs_sorted = dirs[finite][order]
        csum = np.cumsum(values[finite][order])
        for k in np.nonzero(np.diff(angles[finite][order]) > 1e-12)[0]:
            m = k + 1
            if m < n_min or n - m < n_min:
                continue
            w = math.sqrt(m * (n - m) / n) * (csum[k] / m - (csum[-1] - csum[k]) / (n - m))
            ranked.append((-abs(w), e, k, dirs_sorted[k], dirs_sorted[k + 1]))
    ranked.sort(key=lambda item: (item[0], item[1], item[2]))
    for _, e, _, left_dir, right_dir in ranked:
        split = make_edge_split(cell, dataset.locations, e, geodesic_midpoint(left_dir, right_dir))
        if all(child.mass >= n_min for child in split.children):
            return split
    return None


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


class TestCutCoefficients:
    def test_equals_scalar_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            n = int(rng.integers(2, 60))
            csum = np.cumsum(rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3))
            gaps = np.flatnonzero(rng.uniform(size=n - 1) < 0.7)
            want = [math.sqrt((k + 1) * (n - k - 1) / n)
                    * (csum[k] / (k + 1) - (csum[-1] - csum[k]) / (n - k - 1)) for k in gaps]
            assert np.array_equal(cut_coefficients(csum, gaps), np.array(want, dtype=np.float64))

    def test_haar_coefficient_equals_mean_formula(self):
        # the Bayesian layer used ndarray.mean(); sum() / size is the same double
        rng = np.random.default_rng(6)
        for _ in range(2000):
            y = rng.standard_normal(int(rng.integers(2, 200))) * 10.0 ** rng.uniform(-3, 3)
            cut = int(rng.integers(1, y.size))
            perm = rng.permutation(y.size)
            plus, minus = perm[:cut], perm[cut:]
            want = math.sqrt(plus.size * minus.size / y.size) * (y[plus].mean() - y[minus].mean())
            assert haar_coefficient(y, plus, minus) == want

    @pytest.mark.parametrize("n_min", [1, 3])
    def test_fan_split_equals_loop_version(self, n_min):
        checked = 0
        for seed in range(60):
            ds = generate_sphere_synthetic("fig5", 150, 0.2, seed=seed)
            face = seed % 20
            members = np.flatnonzero(assign_faces(BASE, ds.locations) == face)
            cell = triangle_cell(BASE.face_vertices(face), members, 0)
            # rounded responses tie many |w|, so the (edge, k) tie order matters
            responses = np.round(ds.responses, 1) if seed % 2 else ds.responses
            got = fan_split(cell, ds, responses, n_min=n_min)
            want = reference_fan_split(cell, ds, responses, n_min=n_min)
            assert (got is None) == (want is None)
            if got is not None:
                checked += 1
                assert got.edge == want.edge
                assert np.array_equal(got.xi, want.xi)
                assert np.array_equal(got.children[0].members, want.children[0].members)
        assert checked > 30

    def test_fan_split_equals_loop_version_with_vertex_members(self):
        # a member on the vertex opposite an edge has no central projection
        # onto it (NaN angle), so the scans of one cell differ in length
        rng = np.random.default_rng(3)
        for _ in range(100):
            verts = BASE.face_vertices(int(rng.integers(20)))
            pts = rng.dirichlet(np.ones(3), size=int(rng.integers(2, 9))) @ verts
            pts = np.vstack([pts / np.linalg.norm(pts, axis=1, keepdims=True),
                             verts[rng.choice(3, size=int(rng.integers(1, 3)), replace=False)]])
            ds = sphere_dataset(pts, np.round(rng.normal(size=len(pts)), 1))
            cell = triangle_cell(verts, np.arange(len(pts)), 0)
            for n_min in (1, 2):
                got = fan_split(cell, ds, ds.responses, n_min=n_min)
                want = reference_fan_split(cell, ds, ds.responses, n_min=n_min)
                assert (got is None) == (want is None)
                if got is not None:
                    assert got.edge == want.edge and np.array_equal(got.xi, want.xi)
