"""Per-face tree fitting on the icosahedral mesh, with random rotations.

A model is a rotation plus twenty face trees grown on the rotated
locations.  Prediction rotates the query, locates its face (boundary ties
to the smallest face id) and runs the telescoping reconstruction of that
face's tree; each face tree uses its own face mean as intercept, and a
face with no training points predicts the global training mean.

The noise scale for early stopping is pooled: every face grows a
throwaway pilot tree and the deepest coefficients of all twenty pilots
feed one MAD estimate.

Face trees are independent and may be grown in parallel; a fitted model
is immutable and thread-safe.
"""

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .core import UHTree, batch_reconstruct, sphere_dataset, triangle_cell, uh_coefficient
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


def _grow_face(verts, members, rotated, responses, rule, params, threshold, fallback,
               empty_intercept=0.0):
    if members.size == 0:
        # no data on this face: root-only tree predicting the global mean
        return UHTree(triangle_cell(verts, members, 0), empty_intercept)
    tree = UHTree(triangle_cell(verts, members, 0), responses[members].mean())
    frontier = deque([0])
    while frontier:
        nid = frontier.popleft()
        cell = tree.nodes[nid].cell
        if cell.depth >= params.max_depth or cell.mass < 2 or cell.kind != "triangle":
            continue
        cell_resp = responses[cell.members]
        if cell_resp.min() == cell_resp.max():
            continue  # degenerate parent: every coefficient is zero
        split = split_triangle(cell, rule, rotated, responses, n_min=params.min_leaf)
        if split is None and fallback:
            split = fan_split(cell, rotated, responses, n_min=params.min_leaf)
        if split is None:
            continue
        if threshold > 0.0 and abs(uh_coefficient(split, cell, responses)) < threshold:
            continue
        frontier.extend(tree.split_node(nid, split, responses))
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


def _pooled_pilot_sigma(face_members, rotated, responses, rule, params, fallback):
    pilot_params = replace(
        params, early_stop_b=0.0, min_leaf=1, max_depth=pilot_depth(params, rotated.n), soft_a=0.0,
    )
    return _pooled_sigma(
        _grow_face(BASE.face_vertices(j), face_members[j], rotated, responses,
                   rule, pilot_params, 0.0, fallback)
        for j in range(BASE.n_faces)
    )


def fit_sphere(dataset, responses, rule, params, rotation=None,
               separating_fallback=True, compute_sigma=False):
    """Grow the twenty face trees on rotated locations.

    rotation defaults to the identity.  Faces with no points get no tree
    and predict the global mean; single-point faces get root-only trees.
    With separating_fallback (default), a cell the named rule cannot split
    is offered central-projection cuts so full-depth growth reaches
    singleton leaves.
    """
    responses = np.asarray(responses, dtype=np.float64)
    if rotation is None:
        rotation = np.eye(3)
    rotation = _check_rotation(rotation)
    rotated_points = dataset.locations @ rotation.T
    rotated = sphere_dataset(rotated_points, responses)
    face_idx = assign_faces(BASE, rotated_points)
    face_members = [np.flatnonzero(face_idx == j) for j in range(BASE.n_faces)]

    sigma_hat = None
    threshold = 0.0
    need_sigma = params.early_stop_b > 0 or compute_sigma
    # with no early stopping and min_leaf 1 the fitted trees coincide with
    # the pilot pass, so their own deep coefficients give the MAD estimate
    reuse_as_pilot = (
        need_sigma and params.sigma is None and params.early_stop_b == 0
        and params.min_leaf == 1 and params.max_depth >= pilot_depth(params, dataset.n)
    )
    if need_sigma and not reuse_as_pilot:
        if params.sigma is not None:
            sigma_hat = params.sigma
        else:
            sigma_hat = _pooled_pilot_sigma(
                face_members, rotated, responses, rule, params, separating_fallback,
            )
        threshold = params.early_stop_b * sigma_hat

    global_mean = float(responses.mean())
    trees = [
        _grow_face(
            BASE.face_vertices(j), face_members[j], rotated, responses,
            rule, params, threshold, separating_fallback, empty_intercept=global_mean,
        )
        for j in range(BASE.n_faces)
    ]
    if reuse_as_pilot:
        sigma_hat = _pooled_sigma(trees)
    return SphereModel(rotation, trees, global_mean, rule, params, sigma_hat)


def predict_sphere(model, queries, shrunk=False):
    """Reconstruction at unit-norm queries; scalar in, scalar out."""
    queries = np.asarray(queries, dtype=np.float64)
    single = queries.ndim == 1
    pts = np.atleast_2d(queries) @ model.rotation.T
    face_idx = assign_faces(BASE, pts)
    out = np.empty(pts.shape[0])
    for j in np.unique(face_idx):
        sel = np.flatnonzero(face_idx == j)
        values, _ = batch_reconstruct(model.face_trees[j], pts[sel], shrunk=shrunk)
        out[sel] = values
    return float(out[0]) if single else out


def model_leaf_members(model, queries):
    """Training-member index array of the leaf containing each query.

    Used by quantile forests; queries landing in an empty face get an
    empty array.
    """
    pts = np.atleast_2d(np.asarray(queries, dtype=np.float64)) @ model.rotation.T
    face_idx = assign_faces(BASE, pts)
    out = [None] * pts.shape[0]
    for j in np.unique(face_idx):
        sel = np.flatnonzero(face_idx == j)
        tree = model.face_trees[j]
        _, leaf_ids = batch_reconstruct(tree, pts[sel])
        for i, leaf in zip(sel, leaf_ids):
            out[i] = tree.nodes[leaf].cell.members
    return out


def sphere_shrink(model, tau):
    """Populate w_tilde = soft_threshold(w, tau) across all face trees."""
    from .grid import soft_threshold

    for tree in model.face_trees:
        if tree is not None:
            tree.set_shrunk(lambda w: soft_threshold(w, tau))
    return model
