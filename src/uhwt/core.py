"""Cells, splits, unbalanced Haar atoms, trees and exact reconstruction.

Everything is measured in the counting convention: the mass of a cell is
the number of training points inside it, the atom attached to a split with
group masses (n_plus, n_minus, n_parent) takes the constant values

    value_plus  = +sqrt(n_plus * n_minus / n_parent) / n_plus
    value_minus = -sqrt(n_plus * n_minus / n_parent) / n_minus

and the detail coefficient w = sqrt(n_plus*n_minus/n_parent) *
(mean_plus - mean_minus) equals the plain-sum inner product
sum_i y_i * psi(x_i).  Under this convention the scaling function
1_root / sqrt(n_root) together with all atoms is an orthonormal system,
and the telescoping reconstruction

    f(x) = mean_root + sum_path u_i * w_i / c(A_i),
    c(A_i) = sqrt(n_Ai) * (n_plus / n_minus) ** (u_i / 2)

returns the exact training response at singleton leaves and the leaf mean
otherwise.

Every read path (batch_reconstruct, tree_fit_values, sphere prediction
and quantile weights) compiles its trees into flat arrays
(compile_trees) and walks all queries down one level per step (descend),
adding the branch deltas in path order, so the sums equal the
node-by-node telescoping sums bit for bit.

Trees and datasets are immutable after fitting; all read paths are safe
to call from many threads.  Construction is single-writer.
"""

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import EmptyChildError, InvalidDatasetError, NonFiniteDataError, OutOfDomainError

GRID = "grid"
SPHERE = "sphere"

BOUNDARY_EPS = 1e-12  # orientation-determinant slack, defined once


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dataset:
    """Training locations and responses on a grid or on the unit sphere.

    locations : (n, D) float array; on the sphere D = 3 with unit rows.
    responses : (n,) float array.
    kind      : "grid" or "sphere".
    axis_sizes: optional axis sizes for lattice data (informational).
    """

    locations: np.ndarray
    responses: np.ndarray
    kind: str = GRID
    axis_sizes: tuple = None

    def __post_init__(self):
        loc = np.ascontiguousarray(self.locations, dtype=np.float64)
        if loc.ndim != 2:
            raise InvalidDatasetError("locations must be a 2-D array of shape (n, D)")
        resp = np.asarray(self.responses, dtype=np.float64).ravel()
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "responses", resp)
        n = loc.shape[0]
        if n < 1:
            raise InvalidDatasetError("need at least one observation")
        if resp.shape[0] != n:
            raise InvalidDatasetError("locations and responses disagree in length")
        if not (np.isfinite(loc).all() and np.isfinite(resp).all()):
            raise NonFiniteDataError("locations and responses must be finite (no NaN or inf)")
        if np.unique(loc, axis=0).shape[0] != n:
            raise InvalidDatasetError("locations must be unique")
        if self.kind == SPHERE:
            if loc.shape[1] != 3:
                raise InvalidDatasetError("sphere locations must be 3-vectors")
            norms = np.linalg.norm(loc, axis=1)
            if np.max(np.abs(norms - 1.0)) > 1e-9:
                raise InvalidDatasetError("sphere locations must have unit norm (1e-9)")
        elif self.kind != GRID:
            raise ValueError("kind must be 'grid' or 'sphere'")

    @property
    def n(self):
        return self.locations.shape[0]

    @property
    def ndim(self):
        return self.locations.shape[1]


def grid_dataset(locations, responses, axis_sizes=None):
    return Dataset(locations, responses, GRID, tuple(axis_sizes) if axis_sizes else None)


def sphere_dataset(locations, responses):
    return Dataset(locations, responses, SPHERE)


# ---------------------------------------------------------------------------
# cells
# ---------------------------------------------------------------------------

@dataclass
class Cell:
    """A partition element with its member point set.

    Geometry is one of
      box      : (D, 2) float bounds, axis aligned;
      triangle : (1, 3, 3) unit vertices, counterclockwise from outside;
      tripair  : (2, 3, 3) the two triangles of a grouped half of a
                 midpoint 4-way split.
    members is the sorted index set of dataset points inside the geometry;
    trees loaded from disk carry only a count.
    """

    members: np.ndarray
    depth: int
    box: np.ndarray = None
    triangles: np.ndarray = None
    count: int = None

    def __post_init__(self):
        if self.members is not None:
            self.members = np.asarray(self.members, dtype=np.intp)

    @property
    def kind(self):
        if self.box is not None:
            return "box"
        return "triangle" if self.triangles.shape[0] == 1 else "tripair"

    @property
    def mass(self):
        if self.members is not None:
            return int(self.members.size)
        return int(self.count)


def cell_mass(cell):
    """Number of training points in the cell (counting measure)."""
    return cell.mass


def root_cell_grid(dataset):
    lo = dataset.locations.min(axis=0)
    hi = dataset.locations.max(axis=0)
    return Cell(np.arange(dataset.n), 0, box=np.stack([lo, hi], axis=1))


def triangle_cell(vertices, members, depth):
    verts = np.asarray(vertices, dtype=np.float64).reshape(3, 3)
    return Cell(members, depth, triangles=verts[None, :, :])


# ---------------------------------------------------------------------------
# triangle geometry shared by splits and descent
# ---------------------------------------------------------------------------

def _cross3(a, b):
    """np.cross of two 3-vectors given as float sequences, as a list.

    The same products and differences in the same order as np.cross, so
    the result is bit-identical; per-node code passes ``.tolist()`` rows
    and skips numpy's per-call overhead on tiny arrays.
    """
    a0, a1, a2 = a
    b0, b1, b2 = b
    return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]


def _min3(dets):
    """Minimum over the last axis of length 3, without a reduction."""
    return np.minimum(np.minimum(dets[..., 0], dets[..., 1]), dets[..., 2])


def tri_edge_normals(verts):
    """Outward-edge normals cross(v_i, v_{i+1}); det tests are dots with these."""
    v0, v1, v2 = np.asarray(verts, dtype=np.float64).tolist()
    return np.array([_cross3(v0, v1), _cross3(v1, v2), _cross3(v2, v0)])


def tri_contains_many(verts, points, eps=BOUNDARY_EPS):
    return _min3(points @ tri_edge_normals(verts).T) >= -eps


def edge_child_vertices(verts, edge, xi):
    """Children of cutting edge (v_e, v_{e+1}) at xi toward the opposite vertex.

    Returns (plus_verts, minus_verts): the plus child contains v_{e+1}
    (points with det[v_opp, xi, p] >= 0), the minus child contains v_e.
    """
    va = verts[edge]
    vb = verts[(edge + 1) % 3]
    vopp = verts[(edge + 2) % 3]
    plus = np.array([vopp, xi, vb])
    minus = np.array([vopp, va, xi])
    return plus, minus


def quad_child_vertices(verts, midpoints):
    """Four midpoint-subdivision triangles [corner0, corner1, central, corner2].

    midpoints[j] is the geodesic midpoint of edge (v_j, v_{j+1}).
    """
    m01, m12, m20 = midpoints
    v0, v1, v2 = verts
    return (
        np.stack([v0, m01, m20]),
        np.stack([m01, v1, m12]),
        np.stack([m01, m12, m20]),
        np.stack([m20, m12, v2]),
    )


# ---------------------------------------------------------------------------
# splits and atoms
# ---------------------------------------------------------------------------

@dataclass
class Split:
    """A split of a parent cell into signed child groups.

    kind is one of
      axis : grid cut at ``loc`` along ``dim``; children [left, right],
             plus group = left = smaller-coordinate side;
      edge : geodesic cut from ``xi`` on edge ``edge`` to the opposite
             vertex; children [plus, minus] by sign of det[v_opp, xi, p];
      quad : midpoint 4-way split; children [corner0, corner1, central,
             corner2], plus group {0, 2}, minus group {1, 3};
      pair : split of a grouped half into its two triangles.
    """

    kind: str
    children: list
    plus_group: tuple
    minus_group: tuple
    dim: int = None
    loc: float = None
    edge: int = None
    xi: np.ndarray = None
    cut_normal: np.ndarray = None
    midpoints: np.ndarray = None

    def group_members(self, sign):
        group = self.plus_group if sign > 0 else self.minus_group
        parts = [self.children[i].members for i in group]
        if len(parts) == 1:
            return parts[0]
        return np.sort(np.concatenate(parts))

    def group_mass(self, sign):
        group = self.plus_group if sign > 0 else self.minus_group
        return sum(self.children[i].mass for i in group)


def make_axis_split(cell, locations, dim, loc, *, _parts=None):
    """Axis-aligned split of a box cell: members below loc go left.

    ``_parts`` is the (left, right) pair of sorted member arrays a level
    scan already partitioned at this cut, so the grower does not compare
    the coordinates again.
    """
    if _parts is None:
        left_mask = locations[cell.members, dim] < loc
        _parts = cell.members[left_mask], cell.members[~left_mask]
    left_box = cell.box.copy()
    right_box = cell.box.copy()
    left_box[dim, 1] = loc
    right_box[dim, 0] = loc
    left = Cell(_parts[0], cell.depth + 1, box=left_box)
    right = Cell(_parts[1], cell.depth + 1, box=right_box)
    return Split("axis", [left, right], (0,), (1,), dim=dim, loc=float(loc))


def _edge_cut(verts, edge, xi, points):
    """(cut normal, plus mask) of the edge cut at xi: det[v_opp, xi, p] >= 0."""
    normal = np.array(_cross3(verts[(edge + 2) % 3].tolist(), xi.tolist()))
    return normal, points @ normal >= 0.0


def make_edge_split(cell, locations, edge, xi, *, _cut=None):
    """Geodesic edge cut of a triangle cell; members split by det sign.

    ``_cut`` is the (normal, plus mask) pair _edge_cut already returned for
    this cut, so a split search that scored it does not compute it again.
    """
    verts = cell.triangles[0]
    xi = np.asarray(xi, dtype=np.float64)
    if _cut is None:
        _cut = _edge_cut(verts, edge, xi, locations[cell.members])
    normal, plus_mask = _cut
    pv, mv = edge_child_vertices(verts, edge, xi)
    plus = triangle_cell(pv, cell.members[plus_mask], cell.depth + 1)
    minus = triangle_cell(mv, cell.members[~plus_mask], cell.depth + 1)
    return Split(
        "edge", [plus, minus], (0,), (1,),
        edge=edge, xi=xi, cut_normal=normal,
    )


def quad_assign(child_cells, points):
    """Containing sub-triangle index in {0..3}; smallest index on boundary ties."""
    m = points.shape[0]
    mind = np.empty((m, 4))
    for idx, child in enumerate(child_cells):
        mind[:, idx] = _min3(points @ tri_edge_normals(child.triangles[0]).T)
    out = np.full(m, -1, dtype=np.intp)
    for idx in range(4):
        hit = (out < 0) & (mind[:, idx] >= -BOUNDARY_EPS)
        out[hit] = idx
    miss = out < 0
    if np.any(miss):
        out[miss] = mind[miss].argmax(axis=1)
    return out


def make_quad_split(cell, locations, midpoints):
    """Midpoint 4-way split of a triangle; plus group = {corner0, central}."""
    verts = cell.triangles[0]
    midpoints = np.asarray(midpoints, dtype=np.float64)
    child_verts = quad_child_vertices(verts, midpoints)
    shells = [triangle_cell(v, np.empty(0, dtype=np.intp), cell.depth + 1) for v in child_verts]
    sub = quad_assign(shells, locations[cell.members])
    children = [
        triangle_cell(child_verts[i], cell.members[sub == i], cell.depth + 1)
        for i in range(4)
    ]
    return Split("quad", children, (0, 2), (1, 3), midpoints=midpoints)


@dataclass(frozen=True)
class UHAtom:
    """Piecewise-constant wavelet attached to one split of a parent cell."""

    split: Split
    support: Cell
    value_plus: float
    value_minus: float

    def values_at_members(self, n):
        """Dense length-n vector of atom values at the training locations."""
        out = np.zeros(n)
        out[self.split.group_members(+1)] = self.value_plus
        out[self.split.group_members(-1)] = self.value_minus
        return out


def uh_atom(split, parent):
    """Normalized atom: zero mean and unit norm under the sample sum."""
    n_plus = split.group_mass(+1)
    n_minus = split.group_mass(-1)
    if n_plus == 0 or n_minus == 0:
        raise EmptyChildError("both split groups need at least one point")
    scale = math.sqrt(n_plus * n_minus / (n_plus + n_minus))
    return UHAtom(split, parent, scale / n_plus, -scale / n_minus)


def haar_coefficient(responses, plus, minus):
    """Detail coefficient sqrt(n+ n- / n) * (mean+ - mean-) of two nonempty index sets."""
    scale = math.sqrt(plus.size * minus.size / (plus.size + minus.size))
    # sum / size is what ndarray.mean computes, minus its wrapper overhead
    return scale * (responses[plus].sum() / plus.size - responses[minus].sum() / minus.size)


def cut_coefficients(csum, gaps, counts=None, totals=None):
    """haar_coefficient of each cut of a sorted scan whose running sums are csum.

    The cut after position k (for each k in gaps) puts the first k + 1 members in the plus group.
    A scan of many segments at once passes, per cut, counts = (plus-group sizes, segment sizes)
    and totals = segment sums; csum then holds each segment's own running sums.
    """
    if counts is None:
        m, n, total = gaps + 1, csum.size, csum[-1]
    else:
        (m, n), total = counts, totals
    rest = n - m
    left = csum[gaps]
    return np.sqrt(m * rest / n) * (left / m - (total - left) / rest)


def sse(responses, members):
    """Sum of squared deviations of responses[members] from their mean; 0 when empty."""
    vals = responses[members]
    return float(((vals - vals.mean()) ** 2).sum()) if members.size else 0.0


def uh_coefficient(split, parent, responses):
    """Detail coefficient sqrt(n+ n- / n_A) * (mean+ - mean-).

    Identical formula for axis, edge and grouped quad splits; equals the
    plain-sum inner product of the responses with the split's atom.
    """
    responses = np.asarray(responses, dtype=np.float64)
    plus = split.group_members(+1)
    minus = split.group_members(-1)
    if plus.size == 0 or minus.size == 0:
        raise EmptyChildError("both split groups need at least one point")
    return haar_coefficient(responses, plus, minus)


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------

@dataclass
class Node:
    id: int
    parent: int
    cell: Cell
    split: Split = None
    w: float = None
    w_tilde: float = None
    children: list = field(default_factory=list)

    @property
    def is_leaf(self):
        return self.split is None


class UHTree:
    """Binary recursive partition with one detail coefficient per internal node.

    Node ids are assigned breadth-first at creation; the first child of an
    internal node is always the plus group.  A midpoint 4-way split is
    stored as a two-level binary cascade (parent "quad" node -> two grouped
    halves with "pair" splits -> four triangles), so every internal node
    carries exactly one coefficient and the atom system stays complete.
    """

    def __init__(self, root_cell, intercept):
        self.nodes = [Node(0, None, root_cell)]
        self.intercept = float(intercept)

    @property
    def root(self):
        return self.nodes[0]

    def leaves(self):
        return [nd for nd in self.nodes if nd.is_leaf]

    def internal_nodes(self):
        return [nd for nd in self.nodes if not nd.is_leaf]

    def node_count(self):
        return len(self.nodes)

    def max_depth(self):
        return max(nd.cell.depth for nd in self.nodes)

    def _append(self, parent_id, cell):
        node = Node(len(self.nodes), parent_id, cell)
        self.nodes.append(node)
        self.nodes[parent_id].children.append(node.id)
        return node

    def split_node(self, node_id, split, responses):
        """Attach a split, computing its coefficient; returns new frontier ids.

        For quad splits the grouped halves and their pair contrasts are
        created as well; the frontier then holds the four triangles.
        """
        node = self.nodes[node_id]
        if not node.is_leaf:
            raise ValueError("node already split")
        node.split = split
        node.w = uh_coefficient(split, node.cell, responses)
        if split.kind != "quad":
            plus = self._append(node_id, split.children[split.plus_group[0]])
            minus = self._append(node_id, split.children[split.minus_group[0]])
            return [plus.id, minus.id]
        frontier = []
        for group in (split.plus_group, split.minus_group):
            a, b = (split.children[i] for i in group)
            half = Cell(
                np.sort(np.concatenate([a.members, b.members])),
                a.depth,
                triangles=np.concatenate([a.triangles, b.triangles]),
            )
            half_node = self._append(node_id, half)
            pair = Split("pair", [a, b], (0,), (1,))
            half_node.split = pair
            half_node.w = uh_coefficient(pair, half, responses)
            for child in (a, b):
                frontier.append(self._append(half_node.id, child).id)
        return frontier

    def set_shrunk(self, shrink_fn):
        """Populate w_tilde = shrink_fn(w) at every internal node."""
        for node in self.nodes:
            if node.split is not None:
                node.w_tilde = float(shrink_fn(node.w))

    def atoms(self):
        """UHAtom per internal node, in node-id order."""
        return [uh_atom(nd.split, nd.cell) for nd in self.nodes if nd.split is not None]


_KINDS = ("leaf", "axis", "edge", "quad", "pair")
_LEAF, _AXIS, _EDGE, _QUAD, _PAIR = range(len(_KINDS))
_CODES = {name: code for code, name in enumerate(_KINDS)}


@dataclass
class FlatTrees:
    """Trees compiled into flat arrays, concatenated in order.

    Node i of trees[t] is row roots[t] + i.  kind holds the split kinds
    (codes into _KINDS), children the (plus, minus) child rows (-1 at
    leaves), and slot each node's row in its kind's parameter table:
    axis_dim/axis_loc, edge_normal (the cut normals), quad_normals (the
    four child triangles' edge normals) and pair_normals (the first
    child triangle's edge normals).  d_plus/d_minus are the branch
    deltas w*sqrt(n_minus/(n_A n_plus)) and -w*sqrt(n_plus/(n_A n_minus))
    of the chosen coefficients; intercept is per tree.  With members,
    perm lists every leaf's training members and a leaf owns
    perm[start:start + size].
    """

    roots: np.ndarray
    intercept: np.ndarray
    kind: np.ndarray
    children: np.ndarray
    slot: np.ndarray
    axis_dim: np.ndarray
    axis_loc: np.ndarray
    edge_normal: np.ndarray
    quad_normals: np.ndarray
    pair_normals: np.ndarray
    d_plus: np.ndarray
    d_minus: np.ndarray
    perm: np.ndarray = None
    start: np.ndarray = None
    size: np.ndarray = None


def _table(rows, shape):
    return np.array(rows, dtype=np.float64).reshape((len(rows),) + shape)


def compile_trees(trees, shrunk=False, members=False):
    """Flat arrays of the trees for the level-synchronous descent.

    Compiled per call and not cached: split_node and set_shrunk change a
    tree after creation.  members=True also lays out the leaf slices.
    """
    sizes = [len(tree.nodes) for tree in trees]
    count = sum(sizes)
    roots = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.intp)
    nodes = [nd for tree in trees for nd in tree.nodes]
    splits = [nd.split for nd in nodes]
    kind = np.fromiter((_LEAF if s is None else _CODES[s.kind] for s in splits), np.intp, count)
    internal = np.flatnonzero(kind != _LEAF)
    inner = internal.tolist()
    children = np.full((count, 2), -1, dtype=np.intp)
    children[internal] = np.fromiter(
        chain.from_iterable(nodes[i].children for i in inner), np.intp, 2 * len(inner),
    ).reshape(-1, 2) + np.repeat(roots, sizes)[internal, None]
    slot = np.zeros(count, dtype=np.intp)
    by_kind = {}
    for code in range(_AXIS, len(_KINDS)):
        rows = np.flatnonzero(kind == code)
        slot[rows] = np.arange(rows.size)
        by_kind[code] = [splits[i] for i in rows.tolist()]
    mass = np.fromiter((nd.cell.mass for nd in nodes), np.int64, count)
    coef = (nodes[i].w_tilde if shrunk else nodes[i].w for i in inner)
    w = np.fromiter((0.0 if c is None else c for c in coef), np.float64, len(inner))
    n_a, n_plus, n_minus = mass[internal], mass[children[internal, 0]], mass[children[internal, 1]]
    d_plus = np.zeros(count)
    d_minus = np.zeros(count)
    d_plus[internal] = w * np.sqrt(n_minus / (n_a * n_plus))
    d_minus[internal] = -w * np.sqrt(n_plus / (n_a * n_minus))
    axes = by_kind[_AXIS]
    flat = FlatTrees(
        roots=roots,
        intercept=np.array([tree.intercept for tree in trees], dtype=np.float64),
        kind=kind,
        children=children,
        slot=slot,
        axis_dim=np.fromiter((s.dim for s in axes), np.intp, len(axes)),
        axis_loc=np.fromiter((s.loc for s in axes), np.float64, len(axes)),
        edge_normal=_table([s.cut_normal for s in by_kind[_EDGE]], (3,)),
        quad_normals=_table([[tri_edge_normals(c.triangles[0]) for c in s.children]
                             for s in by_kind[_QUAD]], (4, 3, 3)),
        pair_normals=_table([tri_edge_normals(s.children[0].triangles[0])
                             for s in by_kind[_PAIR]], (3, 3)),
        d_plus=d_plus,
        d_minus=d_minus,
    )
    if members:
        leaves = np.flatnonzero(kind == _LEAF)
        parts = [nodes[i].cell.members for i in leaves.tolist()]
        flat.size = np.zeros(count, dtype=np.intp)
        flat.size[leaves] = np.fromiter((p.size for p in parts), np.intp, len(parts))
        flat.start = np.zeros(count, dtype=np.intp)
        flat.start[leaves] = np.cumsum(flat.size[leaves]) - flat.size[leaves]
        flat.perm = np.concatenate(parts).astype(np.intp, copy=False)
    return flat


def _dot3(points, normals):
    """Row-wise dot products in one fixed elementwise order.

    A BLAS product rounds differently depending on how many rows it is
    given, so a query's side of a cut would depend on the other queries
    at its node; this order does not.
    """
    return points[:, 0] * normals[..., 0] + points[:, 1] * normals[..., 1] + points[:, 2] * normals[..., 2]


def _tri_min(points, normals):
    """Minimum edge determinant of each point against its triangle's (k, 3, 3) normals."""
    return _min3(np.stack([_dot3(points, normals[:, e]) for e in range(3)], axis=-1))


def _plus_side(flat, code, slot, points, rows):
    """Plus-side mask of points[rows] against nodes of one split kind."""
    if code == _AXIS:
        return points[rows, flat.axis_dim[slot]] < flat.axis_loc[slot]
    pts = points[rows]
    if code == _EDGE:
        return _dot3(pts, flat.edge_normal[slot]) >= 0.0
    if code == _PAIR:
        return _tri_min(pts, flat.pair_normals[slot]) >= -BOUNDARY_EPS
    # quad: containing child, smallest index on ties, else the largest minimum
    quads = flat.quad_normals[slot]
    mind = np.stack([_tri_min(pts, quads[:, c]) for c in range(4)], axis=1)
    inside = mind >= -BOUNDARY_EPS
    sub = np.where(inside.any(axis=1), inside.argmax(axis=1), mind.argmax(axis=1))
    return (sub == 0) | (sub == 2)


def _branch(flat, at, plus):
    """(delta, child) of stepping from nodes at into their plus or minus child."""
    return (np.where(plus, flat.d_plus[at], flat.d_minus[at]),
            np.where(plus, flat.children[at, 0], flat.children[at, 1]))


def descend(flat, points, nodes, values):
    """Walk every query from its node down to a leaf, one level per step.

    Each step tests the points against their nodes' splits, adds the
    plus or minus delta to values in path order (so the sums equal the
    telescoping reconstruction's, addition for addition) and moves each
    point to its child.  nodes and values are updated in place; nodes
    ends at the leaf rows.
    """
    active = np.flatnonzero(flat.kind[nodes] != _LEAF)
    while active.size:
        at = nodes[active]
        kinds = flat.kind[at]
        slots = flat.slot[at]
        first = kinds[0]
        if (kinds == first).all():
            plus = _plus_side(flat, first, slots, points, active)
        else:
            plus = np.empty(active.size, dtype=bool)
            for code in np.unique(kinds).tolist():
                sel = kinds == code
                plus[sel] = _plus_side(flat, code, slots[sel], points, active[sel])
        delta, nxt = _branch(flat, at, plus)
        values[active] += delta
        nodes[active] = nxt
        active = active[flat.kind[nxt] != _LEAF]


def run_descent(trees, points, tree_of_point, shrunk=False, members=False):
    """Compile trees and descend each point from the root of trees[tree_of_point].

    Returns (flat, values, leaves): the compiled arrays, the telescoping
    sums and the leaf rows of flat.
    """
    flat = compile_trees(trees, shrunk, members)
    leaves = flat.roots[tree_of_point]
    values = flat.intercept[tree_of_point]
    descend(flat, points, leaves, values)
    return flat, values, leaves


def batch_reconstruct(tree, points, shrunk=False):
    """Vectorized reconstruction at query points; returns (values, leaf_ids)."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    _, values, leaf_ids = run_descent([tree], points, np.zeros(points.shape[0], dtype=np.intp), shrunk)
    return values, leaf_ids


def _in_root(tree, point):
    cell = tree.root.cell
    if cell.kind == "box":
        lo, hi = cell.box[:, 0], cell.box[:, 1]
        tol = 1e-9 * np.maximum(1.0, hi - lo)
        return bool(np.all(point >= lo - tol) and np.all(point <= hi + tol))
    return bool(tri_contains_many(cell.triangles[0], point[None, :], eps=1e-9)[0])


def reconstruct(tree, point, shrunk=False):
    """Telescoping reconstruction at one query point.

    Adds u_i * w_i / c(A_i) along the root-to-leaf path, where u_i = +1
    when the path enters the plus group and c(A_i) = sqrt(n_Ai) *
    (n_plus/n_minus)**(u_i/2).  Raises OutOfDomainError outside the root.
    """
    point = np.asarray(point, dtype=np.float64).ravel()
    if not _in_root(tree, point):
        raise OutOfDomainError("query point lies outside the root cell")
    values, _ = batch_reconstruct(tree, point[None, :], shrunk=shrunk)
    return float(values[0])


def _path_sums(flat):
    """Value of every node's telescoping sum from its tree's root.

    Sums are built top-down one level at a time with descend's step,
    each child adding its branch delta to its parent's sum, so a
    training point's sum is the one descend computes for it, addition
    for addition.
    """
    sums = np.zeros(flat.kind.size)
    level = flat.roots
    sums[level] = flat.intercept
    while level.size:
        level = level[flat.kind[level] != _LEAF]
        at = np.concatenate([level, level])
        delta, nxt = _branch(flat, at, np.arange(at.size) < level.size)
        sums[nxt] = sums[at] + delta
        level = nxt
    return sums


def leaf_member_values(flat):
    """(training ids, fitted values): every leaf member with its leaf's path sum."""
    leaves = np.flatnonzero(flat.kind == _LEAF)
    return flat.perm, np.repeat(_path_sums(flat)[leaves], flat.size[leaves])


def tree_fit_values(tree, shrunk=False):
    """Fitted values at the tree's own training points.

    Returns a vector aligned with tree.root.cell.members (for trees fit to
    a whole dataset this is simply index order).  Elementwise equal to
    reconstruct() at each training location.
    """
    ids, fitted = leaf_member_values(compile_trees([tree], shrunk, members=True))
    values = np.empty(ids.size)
    values[np.searchsorted(tree.root.cell.members, ids)] = fitted
    return values


def system_matrix(tree, n):
    """Columns = scaling function then all atoms, evaluated at the n points.

    With the counting normalization the Gram matrix under the plain sample
    sum (equivalently, of the mu_n-normalized system under the averaged
    inner product (1/n) sum f g) is the identity.
    """
    root = tree.root.cell
    cols = [np.zeros(n)]
    cols[0][root.members] = 1.0 / math.sqrt(root.mass)
    for atom in tree.atoms():
        cols.append(atom.values_at_members(n))
    return np.stack(cols, axis=1)


def gram_matrix(tree, n):
    psi = system_matrix(tree, n)
    return psi.T @ psi


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def _split_record(split):
    if split.kind == "axis":
        return {"kind": "axis", "dim": int(split.dim), "loc": float(split.loc)}
    if split.kind == "edge":
        return {
            "kind": "edge",
            "edge": int(split.edge),
            "xi": [float(v) for v in split.xi],
            "cut_normal": [float(v) for v in split.cut_normal],
        }
    if split.kind == "quad":
        return {"kind": "quad", "midpoints": [[float(v) for v in row] for row in split.midpoints]}
    return {"kind": "pair"}


def tree_to_dict(tree):
    """JSON-ready dict: header plus flat node records.

    Node records are {id, parent, split, w, w_tilde, member_count}; cell
    geometry is replayed from the root geometry and the splits on load, so
    the round trip is bit-faithful for finite doubles.
    """
    root = tree.root.cell
    if root.kind == "box":
        header = {"kind": "box", "bounds": [[float(a), float(b)] for a, b in root.box]}
    else:
        header = {"kind": "triangle", "vertices": [[float(v) for v in row] for row in root.triangles[0]]}
    nodes = []
    for node in tree.nodes:
        nodes.append({
            "id": node.id,
            "parent": node.parent,
            "split": None if node.split is None else _split_record(node.split),
            "w": None if node.w is None else float(node.w),
            "w_tilde": None if node.w_tilde is None else float(node.w_tilde),
            "member_count": node.cell.mass,
        })
    return {"format": "uhwt-tree", "version": 1, "intercept": float(tree.intercept), "root": header, "nodes": nodes}


def _shell(geometry_kind, depth, count, box=None, triangles=None):
    return Cell(None, depth, box=box, triangles=triangles, count=count)


def tree_from_dict(payload):
    """Rebuild a tree from tree_to_dict output (geometry replayed, no members)."""
    if payload.get("format") != "uhwt-tree":
        raise ValueError("not a serialized tree")
    records = payload["nodes"]
    header = payload["root"]
    if header["kind"] == "box":
        root = _shell("box", 0, records[0]["member_count"], box=np.asarray(header["bounds"], dtype=np.float64))
    else:
        verts = np.asarray(header["vertices"], dtype=np.float64)
        root = _shell("triangle", 0, records[0]["member_count"], triangles=verts[None, :, :])
    tree = UHTree(root, payload["intercept"])
    tree.nodes = [Node(0, None, root)]
    by_parent = {}
    for rec in records[1:]:
        by_parent.setdefault(rec["parent"], []).append(rec)
    order = sorted(records, key=lambda r: r["id"])
    cells = {0: root}
    for rec in order:
        nid = rec["id"]
        if rec["split"] is None:
            continue
        node = tree.nodes[nid]
        cell = cells[nid]
        srec = rec["split"]
        kids = sorted(by_parent[nid], key=lambda r: r["id"])
        kind = srec["kind"]
        if kind == "axis":
            box_l, box_r = cell.box.copy(), cell.box.copy()
            dim, loc = srec["dim"], srec["loc"]
            box_l[dim, 1] = loc
            box_r[dim, 0] = loc
            child_cells = [
                _shell("box", cell.depth + 1, kids[0]["member_count"], box=box_l),
                _shell("box", cell.depth + 1, kids[1]["member_count"], box=box_r),
            ]
            node.split = Split("axis", child_cells, (0,), (1,), dim=dim, loc=loc)
        elif kind == "edge":
            xi = np.asarray(srec["xi"], dtype=np.float64)
            pv, mv = edge_child_vertices(cell.triangles[0], srec["edge"], xi)
            child_cells = [
                _shell("triangle", cell.depth + 1, kids[0]["member_count"], triangles=pv[None]),
                _shell("triangle", cell.depth + 1, kids[1]["member_count"], triangles=mv[None]),
            ]
            node.split = Split(
                "edge", child_cells, (0,), (1,), edge=srec["edge"], xi=xi,
                cut_normal=np.asarray(srec["cut_normal"], dtype=np.float64),
            )
        elif kind == "quad":
            mids = np.asarray(srec["midpoints"], dtype=np.float64)
            quads = quad_child_vertices(cell.triangles[0], mids)
            halves = [
                _shell("tripair", cell.depth + 1, kids[0]["member_count"],
                       triangles=np.stack([quads[0], quads[2]])),
                _shell("tripair", cell.depth + 1, kids[1]["member_count"],
                       triangles=np.stack([quads[1], quads[3]])),
            ]
            # child group cells hold only counts; quad membership tests use them
            group_shells = [
                _shell("triangle", cell.depth + 1, 0, triangles=q[None]) for q in quads
            ]
            node.split = Split("quad", group_shells, (0, 2), (1, 3), midpoints=mids)
            child_cells = halves
        elif kind == "pair":
            tris = cell.triangles
            child_cells = [
                _shell("triangle", cell.depth + 1, kids[0]["member_count"], triangles=tris[0][None]),
                _shell("triangle", cell.depth + 1, kids[1]["member_count"], triangles=tris[1][None]),
            ]
            node.split = Split("pair", child_cells, (0,), (1,))
        else:
            raise ValueError(f"unknown split kind {kind!r}")
        node.w = rec["w"]
        node.w_tilde = rec["w_tilde"]
        for krec, kcell in zip(kids, child_cells):
            child = Node(krec["id"], nid, kcell)
            while len(tree.nodes) <= krec["id"]:
                tree.nodes.append(None)
            tree.nodes[krec["id"]] = child
            node.children.append(krec["id"])
            cells[krec["id"]] = kcell
    return tree
