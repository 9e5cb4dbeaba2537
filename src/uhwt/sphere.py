"""Per-face tree fitting on the icosahedral mesh, with random rotations.

A model is a rotation plus twenty face trees grown on the rotated
locations.  Points and queries are rotated in one fixed elementwise order
(core._rotate), so a query's coordinates do not depend on its batch.
Prediction locates the queries' faces (boundary ties to the smallest face
id) and runs the telescoping reconstruction of each query's face tree,
with the twenty trees' node arrays concatenated and every query
descending from its face's root in the same level steps; each face
tree uses its own face mean as intercept, and a face with no training
points predicts the global training mean.

The noise scale for early stopping is pooled: every face grows a
throwaway pilot tree and the deepest coefficients of all twenty pilots
feed one MAD estimate.

Face trees are independent and may be grown in parallel; a fitted model
is immutable and thread-safe.
"""

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .core import UHTree, _rotate, run_descent, sphere_dataset, triangle_cell, uh_coefficient
from .errors import NoInternalNodesError
from .grid import collect_deep_coefficients, estimate_sigma_mad, pilot_depth
from .sphere_geom import assign_faces, fan_split, icosahedron, split_triangle

BASE = icosahedron()


def haar_rotation(rng):
    """Uniform SO(3) draw: Gaussian matrix, QR, sign fixes.

    Column signs are set so the triangular factor has positive diagonal,
    then the last column is flipped if needed to reach determinant +1.
    """
    g = rng.standard_normal((3, 3))
    q, r = np.linalg.qr(g)
    signs = np.where(np.diag(r) < 0, -1.0, 1.0)
    q = q * signs
    if np.linalg.det(q) < 0:
        q[:, 2] *= -1.0
    return q


@dataclass
class SphereModel:
    """Rotation, twenty face trees, and the fit configuration echo."""

    rotation: np.ndarray
    face_trees: list
    global_mean: float
    rule: str
    params: object
    sigma_hat: float = None


def _check_rotation(rotation):
    rotation = np.asarray(rotation, dtype=np.float64)
    if rotation.shape != (3, 3):
        raise ValueError("rotation must be 3x3")
    if np.max(np.abs(rotation.T @ rotation - np.eye(3))) > 1e-12:
        raise ValueError("rotation must be orthogonal (1e-12)")
    if abs(np.linalg.det(rotation) - 1.0) > 1e-12:
        raise ValueError("rotation must have determinant +1 (1e-12)")
    return rotation


def _grow_face(verts, members, rotated, responses, rule, params, threshold,
               empty_intercept=0.0):
    if members.size == 0:
        # no data on this face: root-only tree predicting the global mean
        return UHTree(triangle_cell(verts, members, 0), empty_intercept)
    root = triangle_cell(verts, members, 0)
    tree = UHTree(root, responses[members].mean())
    frontier = deque([(0, root)])
    while frontier:
        nid, cell = frontier.popleft()
        if cell.depth >= params.max_depth or cell.mass < 2:
            continue
        cell_resp = responses[cell.members]
        if cell_resp.min() == cell_resp.max():
            continue  # degenerate parent: every coefficient is zero
        split = split_triangle(cell, rule, rotated, responses, n_min=params.min_leaf)
        if split is None:
            split = fan_split(cell, rotated, responses, n_min=params.min_leaf)
        if split is None:
            continue
        if threshold > 0.0 and abs(uh_coefficient(split, cell, responses)) < threshold:
            continue
        # the new frontier ids are the plus group's cells, then the minus group's
        kids = [split.children[i] for i in split.plus_group + split.minus_group]
        frontier.extend(zip(tree.split_node(nid, split, responses), kids))
    return tree


def _pooled_sigma(trees):
    """MAD estimate from the deep coefficients of all face trees (0 if none)."""
    coefficients = []
    for tree in trees:
        try:
            coefficients.extend(collect_deep_coefficients(tree))
        except NoInternalNodesError:
            pass
    return estimate_sigma_mad(coefficients) if coefficients else 0.0


def _pooled_pilot_sigma(face_members, rotated, responses, rule, params):
    pilot_params = replace(
        params, early_stop_b=0.0, min_leaf=1, max_depth=pilot_depth(params, rotated.n), soft_a=0.0,
    )
    return _pooled_sigma(
        _grow_face(BASE.face_vertices(j), face_members[j], rotated, responses,
                   rule, pilot_params, 0.0)
        for j in range(BASE.n_faces)
    )


def fit_sphere(dataset, responses, rule, params, rotation=None, compute_sigma=False):
    """Grow the twenty face trees on rotated locations.

    rotation defaults to the identity.  Faces with no points get root-only
    trees predicting the global mean; single-point faces get root-only
    trees too.  A cell the named rule cannot split is offered
    central-projection cuts, so full-depth growth reaches singleton leaves.
    """
    responses = np.asarray(responses, dtype=np.float64)
    if rotation is None:
        rotation = np.eye(3)
    rotation = _check_rotation(rotation)
    rotated_points = _rotate(dataset.locations, rotation)
    rotated = sphere_dataset(rotated_points, responses)
    face_idx = assign_faces(BASE, rotated_points)
    face_members = [np.flatnonzero(face_idx == j) for j in range(BASE.n_faces)]

    sigma_hat = None
    threshold = 0.0
    need_sigma = params.early_stop_b > 0 or compute_sigma
    # with no early stopping and min_leaf 1, the fitted trees' deep
    # coefficients stand in for the pilot's; they equal the pilot's only
    # while no face tree reaches the pilot depth, where the pilot stops
    reuse_as_pilot = (
        need_sigma and params.sigma is None and params.early_stop_b == 0
        and params.min_leaf == 1
    )
    if need_sigma and not reuse_as_pilot:
        if params.sigma is not None:
            sigma_hat = params.sigma
        else:
            sigma_hat = _pooled_pilot_sigma(face_members, rotated, responses, rule, params)
        threshold = params.early_stop_b * sigma_hat

    global_mean = float(responses.mean())
    trees = [
        _grow_face(
            BASE.face_vertices(j), face_members[j], rotated, responses,
            rule, params, threshold, empty_intercept=global_mean,
        )
        for j in range(BASE.n_faces)
    ]
    if reuse_as_pilot:
        sigma_hat = _pooled_sigma(trees)
    return SphereModel(rotation, trees, global_mean, rule, params, sigma_hat)


def model_descent(model, queries, shrunk=False):
    """All face trees read as one, each query descended from its face's root.

    Returns run_descent's (flat, values, leaves).
    """
    pts = _rotate(np.atleast_2d(np.asarray(queries, dtype=np.float64)), model.rotation)
    return run_descent(model.face_trees, pts, assign_faces(BASE, pts), shrunk)


def predict_sphere(model, queries, shrunk=False):
    """Reconstruction at unit-norm queries; scalar in, scalar out."""
    single = np.ndim(queries) == 1
    _, values, _ = model_descent(model, queries, shrunk)
    return float(values[0]) if single else values


def model_leaf_members(model, queries):
    """Training-member index array of the leaf containing each query.

    Queries landing in an empty face get an empty array.
    """
    flat, _, leaves = model_descent(model, queries)
    ends = flat.start[leaves] + flat.count[leaves]
    return [flat.perm[a:b] for a, b in zip(flat.start[leaves].tolist(), ends.tolist())]


def sphere_shrink(model, tau):
    """Populate w_tilde = soft_threshold(w, tau) across all face trees."""
    from .grid import soft_threshold

    for tree in model.face_trees:
        tree.set_shrunk(lambda w: soft_threshold(w, tau))
    return model
