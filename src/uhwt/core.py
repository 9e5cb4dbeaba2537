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

A UHTree is node arrays (one row per node), which growers write and
every reader uses directly: tree.nodes[i] and friends are views made on
demand.  Every read path (batch_reconstruct, tree_fit_values, sphere
prediction and quantile weights) walks all queries down the arrays one
level per step (descend), adding the branch deltas in path order, so the
sums equal the node-by-node telescoping sums bit for bit; a sphere
model's face trees are read as one (compile_trees concatenates them).

Trees and datasets are immutable after fitting; all read paths are safe
to call from many threads.  Construction is single-writer.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass

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
    return _edge_normals(np.asarray(verts, dtype=np.float64))


def tri_contains_many(verts, points, eps=BOUNDARY_EPS):
    return _min3(points @ tri_edge_normals(verts).T) >= -eps


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


def make_axis_split(cell, locations, dim, loc):
    """Axis-aligned split of a box cell: members below loc go left."""
    left_mask = locations[cell.members, dim] < loc
    left_box = cell.box.copy()
    right_box = cell.box.copy()
    left_box[dim, 1] = loc
    right_box[dim, 0] = loc
    left = Cell(cell.members[left_mask], cell.depth + 1, box=left_box)
    right = Cell(cell.members[~left_mask], cell.depth + 1, box=right_box)
    return Split("axis", [left, right], (0,), (1,), dim=dim, loc=float(loc))


def _edge_cut(verts, edge, xi, points):
    """(cut normal, plus mask) of the edge cut at xi: det[v_opp, xi, p] >= 0."""
    normal = np.array(_cross3(verts[(edge + 2) % 3].tolist(), xi.tolist()))
    return normal, points @ normal >= 0.0


def make_edge_split(cell, locations, edge, xi, *, _cut=None):
    """Geodesic cut of a triangle cell from xi on edge (v_e, v_{e+1}) to the opposite vertex.

    The plus child [v_opp, xi, v_{e+1}] takes the members with
    det[v_opp, xi, p] >= 0, the minus child [v_opp, v_e, xi] the rest.
    ``_cut`` is the (normal, plus mask) pair _edge_cut already returned for
    this cut, so a split search that scored it does not compute it again.
    """
    verts = cell.triangles[0]
    xi = np.asarray(xi, dtype=np.float64)
    if _cut is None:
        _cut = _edge_cut(verts, edge, xi, locations[cell.members])
    normal, plus_mask = _cut
    va, vb, vopp = verts[edge], verts[(edge + 1) % 3], verts[(edge + 2) % 3]
    plus = triangle_cell([vopp, xi, vb], cell.members[plus_mask], cell.depth + 1)
    minus = triangle_cell([vopp, va, xi], cell.members[~plus_mask], cell.depth + 1)
    return Split(
        "edge", [plus, minus], (0,), (1,),
        edge=edge, xi=xi, cut_normal=normal,
    )


def _quad_child(points, normals):
    """Containing child 0..3 of each point, given its quad's (k, 4, 3, 3) child edge normals.

    The smallest index wins a boundary tie; a point that fails all four
    (only through rounding) goes to the child with the largest minimum
    edge determinant.
    """
    mind = np.stack([_tri_min(points, normals[:, c]) for c in range(4)], axis=1)
    inside = mind >= -BOUNDARY_EPS
    return np.where(inside.any(axis=1), inside.argmax(axis=1), mind.argmax(axis=1))


def make_quad_split(cell, locations, midpoints):
    """Midpoint 4-way split of a triangle; plus group = {corner0, central}."""
    midpoints = np.asarray(midpoints, dtype=np.float64)
    child_verts = quad_child_vertices(cell.triangles[0], midpoints)
    sub = _quad_child(locations[cell.members], _edge_normals(np.stack(child_verts))[None])
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

_KINDS = ("leaf", "axis", "edge", "quad", "pair")
_LEAF, _AXIS, _EDGE, _QUAD, _PAIR = range(len(_KINDS))
_CODES = {name: code for code, name in enumerate(_KINDS)}
# the parameter columns of each split kind, which are also its JSON keys and Split fields
_SPLIT_PARAMS = {"axis": ("dim", "loc"), "edge": ("edge", "xi", "cut_normal"), "quad": ("midpoints",), "pair": ()}
_PARAMS = {"box": _SPLIT_PARAMS["axis"], "triangle": _SPLIT_PARAMS["edge"] + _SPLIT_PARAMS["quad"]}
_SHARED = ("parent", "children", "depth", "kind", "count", "start", "w", "w_tilde", "geometry")
_ROW_SHAPES = {"children": (2,), "xi": (3,), "cut_normal": (3,), "midpoints": (3, 3)}
_INTS = ("parent", "children", "depth", "kind", "count", "start", "dim", "edge")
_FILLS = {"parent": -1, "children": -1, "kind": _LEAF, "w": np.nan, "w_tilde": np.nan, "geometry": np.nan}


def _blank_columns(geometry_kind, geometry_shape, rows):
    """Columns of `rows` unlinked leaf rows with no coefficient or geometry."""
    return {
        name: np.full((rows,) + (geometry_shape if name == "geometry" else _ROW_SHAPES.get(name, ())),
                      _FILLS.get(name, 0), dtype=np.intp if name in _INTS else np.float64)
        for name in _SHARED + _PARAMS[geometry_kind]
    }


def _column(name):
    return property(lambda self: self._columns[name][:self._size], doc=f"{name} of every node")


def _geometry(cell):
    """The box or single triangle of a cell; None for a grouped half or a count-only cell."""
    if cell.box is not None:
        return cell.box
    return cell.triangles[0] if cell.triangles is not None and len(cell.triangles) == 1 else None


class UHTree:
    """Binary recursive partition with one detail coefficient per internal node.

    Node ids are assigned breadth-first at creation; the first child of an
    internal node is always the plus group.  A midpoint 4-way split is
    stored as a two-level binary cascade (parent "quad" node -> two grouped
    halves with "pair" splits -> four triangles), so every internal node
    carries exactly one coefficient and the atom system stays complete.

    Node i is row i of parent and children (-1 where absent; plus child
    first), depth, kind (a code into _KINDS), count, start, w and w_tilde
    (NaN where unset), geometry (box bounds or triangle vertices; NaN on
    quad halves) and the split parameters (_PARAMS), as in scikit-learn's
    Tree.  A node's members are perm[start:start + count]; a split
    rewrites that slice as the plus members, then the minus members, each
    sorted.  Trees loaded from disk have no perm.  nodes, root, leaves()
    and internal_nodes() give read-only NodeViews, made on demand.
    """

    parent, children, depth, kind, count, start, w, w_tilde, geometry = map(_column, _SHARED)
    dim, loc, edge, xi, cut_normal, midpoints = map(_column, _PARAMS["box"] + _PARAMS["triangle"])

    def __init__(self, root_cell, intercept):
        geometry = _geometry(root_cell)
        self.geometry_kind = "box" if root_cell.box is not None else "triangle"
        # no split leaves a group empty, so at most 2 mass - 1 nodes ever exist
        self._columns = _blank_columns(self.geometry_kind, geometry.shape, max(1, 2 * root_cell.mass - 1))
        self._columns["geometry"][0], self._columns["count"][0] = geometry, root_cell.mass
        self._size, self.intercept = 1, float(intercept)
        self.perm = None if root_cell.members is None else root_cell.members.copy()

    @classmethod
    def _of_columns(cls, geometry_kind, columns, intercept, perm):
        tree = cls.__new__(cls)
        tree.geometry_kind, tree._columns, tree._size = geometry_kind, columns, len(columns["kind"])
        tree.intercept, tree.perm = float(intercept), perm
        return tree

    @property
    def nodes(self):
        return _NodeList(self)

    @property
    def root(self):
        return NodeView(self, 0)

    def leaves(self):
        return [NodeView(self, i) for i in np.flatnonzero(self.kind == _LEAF).tolist()]

    def internal_nodes(self):
        return [NodeView(self, i) for i in np.flatnonzero(self.kind != _LEAF).tolist()]

    def node_count(self):
        return self._size

    def _new_rows(self, k):
        size = self._size
        if size + k > len(self._columns["kind"]):
            raise ValueError("splits must partition a cell's members into nonempty groups")
        self._size = size + k
        return np.arange(size, size + k)

    def _add_children(self, parent_id, ids, cells):
        """Rows ids become the (plus, minus) children of parent_id, described by cells.

        Their perm slices split the parent's in turn and take the cells' members, if any.
        """
        c = self._columns
        start = int(c["start"][parent_id])
        for slot, (node, cell) in enumerate(zip(ids, cells)):
            mass, geometry = cell.mass, _geometry(cell)
            c["children"][parent_id, slot] = node
            c["parent"][node], c["depth"][node] = parent_id, cell.depth
            c["count"][node], c["start"][node] = mass, start
            if geometry is not None:
                c["geometry"][node] = geometry
            if cell.members is not None:
                self.perm[start:start + mass] = cell.members
            start += mass

    def _set_split(self, node_id, split, w):
        c = self._columns
        c["kind"][node_id], c["w"][node_id] = _CODES[split.kind], w
        for name in _SPLIT_PARAMS[split.kind]:
            c[name][node_id] = getattr(split, name)

    def split_node(self, node_id, split, responses):
        """Attach a split, computing its coefficient; returns new frontier ids.

        For quad splits the grouped halves and their pair contrasts are
        created as well; the frontier then holds the four triangles.
        """
        if self._columns["kind"][node_id] != _LEAF:
            raise ValueError("node already split")
        w = uh_coefficient(split, None, responses)
        groups = [[split.children[i] for i in group] for group in (split.plus_group, split.minus_group)]
        if split.kind != "quad":
            ids = self._new_rows(2).tolist()
            self._set_split(node_id, split, w)
            self._add_children(node_id, ids, [group[0] for group in groups])
            return ids
        pairs = [Split("pair", group, (0,), (1,)) for group in groups]
        pair_ws = [uh_coefficient(pair, None, responses) for pair in pairs]
        ids = self._new_rows(6).reshape(2, 3).tolist()  # per group: the half, then its two triangles
        self._set_split(node_id, split, w)
        self._add_children(node_id, [half for half, _, _ in ids],
                           [Cell(None, a.depth, count=a.mass + b.mass) for a, b in groups])
        for (half, *tris), pair, pair_w in zip(ids, pairs, pair_ws):
            self._set_split(half, pair, pair_w)
            self._add_children(half, tris, pair.children)
        return [tri for _, *tris in ids for tri in tris]

    def _split_axis_level(self, parents, dims, locs, members, sizes, responses):
        """Axis-split the leaves `parents` at once; returns their (left, right) children.

        members holds each parent's sorted left, then right members, and
        sizes their counts (grid._partition's last row and sizes).  Each w
        is one haar_coefficient of the two slices, as split_node stores it.
        """
        kids = self._new_rows(2 * parents.size).reshape(-1, 2)
        c = self._columns
        c["kind"][parents], c["dim"][parents], c["loc"][parents] = _AXIS, dims, locs
        c["children"][parents], c["parent"][kids], c["count"][kids] = kids, parents[:, None], sizes.reshape(-1, 2)
        bounds = [0] + np.cumsum(sizes).tolist()
        c["w"][parents] = [haar_coefficient(responses, members[lo:mid], members[mid:hi])
                           for lo, mid, hi in zip(bounds[:-1:2], bounds[1::2], bounds[2::2])]
        self._derive_children(parents)
        kids = kids.ravel()
        self.perm[np.repeat(c["start"][kids] - bounds[:-1], sizes) + np.arange(members.size)] = members
        return kids

    def _derive_children(self, parents):
        """depth, start and geometry of the children of split nodes, from the parents' rows.

        A quad's halves and its four triangles (which the quad writes) sit one level below it.
        """
        c = self._columns
        kind, kids, geometry = c["kind"][parents], c["children"][parents], c["geometry"]
        c["depth"][kids] = (c["depth"][parents] + (kind != _PAIR))[:, None]
        c["start"][kids[:, 0]] = c["start"][parents]
        c["start"][kids[:, 1]] = c["start"][parents] + c["count"][kids[:, 0]]
        if self.geometry_kind == "box":
            at, dims, locs = np.arange(parents.size), c["dim"][parents], c["loc"][parents]
            left, right = geometry[parents], geometry[parents]
            left[at, dims, 1], right[at, dims, 0] = locs, locs
            geometry[kids[:, 0]], geometry[kids[:, 1]] = left, right
            return
        edges, quads = kind == _EDGE, kind == _QUAD
        if edges.any():  # as make_edge_split cuts
            e, xi, verts = c["edge"][parents[edges]], c["xi"][parents[edges]], geometry[parents[edges]]
            at = np.arange(e.size)
            va, vb, vopp = verts[at, e], verts[at, (e + 1) % 3], verts[at, (e + 2) % 3]
            geometry[kids[edges, 0]] = np.stack([vopp, xi, vb], axis=1)
            geometry[kids[edges, 1]] = np.stack([vopp, va, xi], axis=1)
        if quads.any():
            tris = quad_child_vertices(geometry[parents[quads]].transpose(1, 0, 2),
                                       c["midpoints"][parents[quads]].transpose(1, 0, 2))
            grand = c["children"][kids[quads]]  # the halves' [corner0, central], [corner1, corner2]
            for tri, (half, slot) in zip(tris, ((0, 0), (1, 0), (0, 1), (1, 1))):
                geometry[grand[:, half, slot]] = tri.transpose(1, 0, 2)

    def set_shrunk(self, shrink_fn):
        """Populate w_tilde = shrink_fn(w) at every internal node.

        shrink_fn is called once, on the array of the internal nodes' w, and
        must act elementwise (a scalar result is broadcast).
        """
        internal = np.flatnonzero(self.kind != _LEAF)
        self._columns["w_tilde"][internal] = shrink_fn(self.w[internal])

    def atoms(self):
        """UHAtom per internal node, in node-id order."""
        return [uh_atom(nd.split, nd.cell) for nd in self.internal_nodes()]


def _internal_levels(tree, level):
    """The split nodes at and below the rows `level`, one depth level at a time, top down."""
    kind, children = tree.kind, tree.children
    while level.size:
        level = level[kind[level] != _LEAF]
        if level.size:
            yield level
        level = children[level].ravel()


class NodeView:
    """Node `id` of a UHTree, read from the tree's arrays.

    parent and w/w_tilde are None where unset.  cell and split rebuild the
    node's Cell and Split on each access; a quad split's children are its
    triangles [corner0, corner1, central, corner2].
    """

    __slots__ = ("tree", "id", "parent", "children", "is_leaf", "w", "w_tilde")

    def __init__(self, tree, node_id):
        c = tree._columns
        self.tree, self.id = tree, node_id
        self.parent = None if c["parent"][node_id] < 0 else int(c["parent"][node_id])
        self.is_leaf = bool(c["kind"][node_id] == _LEAF)
        self.children = [] if self.is_leaf else c["children"][node_id].tolist()
        self.w, self.w_tilde = _optional(np.array([c["w"][node_id], c["w_tilde"][node_id]]))

    @property
    def cell(self):
        tree, i = self.tree, self.id
        c = tree._columns
        start, count, depth = (int(c[name][i]) for name in ("start", "count", "depth"))
        members = None
        if tree.perm is not None:
            members = tree.perm[start:start + count]  # a leaf's slice is sorted
            members = members if self.is_leaf else np.sort(members)
        if tree.geometry_kind == "box":
            return Cell(members, depth, box=c["geometry"][i].copy(), count=count)
        rows = self.children if c["kind"][i] == _PAIR else [i]
        return Cell(members, depth, triangles=c["geometry"][rows], count=count)

    @property
    def split(self):
        c = self.tree._columns
        kind = _KINDS[c["kind"][self.id]]
        if kind == "leaf":
            return None
        kids = self.children
        if kind == "quad":  # the four triangles in [corner0, corner1, central, corner2] order
            (a, b), (d, e) = c["children"][kids].tolist()
            kids = [a, d, b, e]
        groups = ((0, 2), (1, 3)) if kind == "quad" else ((0,), (1,))
        params = {name: c[name][self.id] for name in _SPLIT_PARAMS[kind]}
        return Split(kind, [NodeView(self.tree, j).cell for j in kids], *groups,
                     **{name: v.item() if v.ndim == 0 else v.copy() for name, v in params.items()})


class _NodeList(Sequence):
    """tree.nodes: NodeView i for index i, made when asked for."""

    def __init__(self, tree):
        self.tree = tree

    def __len__(self):
        return self.tree.node_count()

    def __getitem__(self, i):
        ids = range(len(self))[i]
        return [NodeView(self.tree, j) for j in ids] if isinstance(i, slice) else NodeView(self.tree, ids)


def compile_trees(trees):
    """The trees as one UHTree for the descent: (flat, roots, intercepts).

    Node i of trees[t] is row roots[t] + i of flat: the trees' columns and
    perms concatenated, child, parent and perm positions offset.  A single
    tree is its own flat form; flat's own intercept is unused.
    """
    intercepts = np.array([tree.intercept for tree in trees], dtype=np.float64)
    if len(trees) == 1:
        return trees[0], np.zeros(1, dtype=np.intp), intercepts
    sizes = np.array([tree.node_count() for tree in trees])
    roots = np.cumsum(sizes) - sizes
    columns = {name: np.concatenate([tree._columns[name][:tree.node_count()] for tree in trees])
               for name in trees[0]._columns}
    shift = np.repeat(roots, sizes)
    columns["parent"] += np.where(columns["parent"] >= 0, shift, 0)
    columns["children"] += np.where(columns["children"] >= 0, shift[:, None], 0)
    masses = np.array([tree.count[0] for tree in trees])
    columns["start"] += np.repeat(np.cumsum(masses) - masses, sizes)
    perm = None if any(tree.perm is None for tree in trees) else np.concatenate([tree.perm for tree in trees])
    return UHTree._of_columns(trees[0].geometry_kind, columns, np.nan, perm), roots, intercepts


def _deltas(flat, shrunk):
    """Branch deltas (d_plus, d_minus) of every node, 0 at leaves.

    w*sqrt(n_minus/(n_A n_plus)) and -w*sqrt(n_plus/(n_A n_minus)) for w, or
    for w_tilde with shrunk (an unset w_tilde counts as 0).
    """
    internal = np.flatnonzero(flat.kind != _LEAF)
    coef = (flat.w_tilde if shrunk else flat.w)[internal]
    w = np.where(np.isnan(coef), 0.0, coef)
    mass, kids = flat.count, flat.children[internal]
    n_a, n_plus, n_minus = mass[internal], mass[kids[:, 0]], mass[kids[:, 1]]
    d_plus, d_minus = np.zeros(mass.size), np.zeros(mass.size)
    d_plus[internal] = w * np.sqrt(n_minus / (n_a * n_plus))
    d_minus[internal] = -w * np.sqrt(n_plus / (n_a * n_minus))
    return d_plus, d_minus


def _dot3(points, normals):
    """Row-wise dot products in one fixed elementwise order.

    A BLAS product rounds differently depending on how many rows it is
    given, so a query's side of a cut would depend on the other queries
    at its node; this order does not.
    """
    return points[:, 0] * normals[..., 0] + points[:, 1] * normals[..., 1] + points[:, 2] * normals[..., 2]


def _rotate(points, rotation):
    """points @ rotation.T, each coordinate summed in _dot3's order.

    BLAS would round a point's rotated coordinates differently depending
    on how many points share the product; this does not.
    """
    return np.ascontiguousarray(_dot3(points, rotation[:, None, :]).T)


def _cross_rows(a, b):
    """Row-wise np.cross of (..., 3) arrays; either may be one 3-vector."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _edge_normals(verts):
    """Edge normals cross(v_e, v_{e+1}) of (..., 3, 3) vertex arrays."""
    return _cross_rows(verts, verts[..., [1, 2, 0], :])


def _tri_min(points, normals):
    """Minimum edge determinant of each point against its triangle's (k, 3, 3) normals."""
    return _min3(np.stack([_dot3(points, normals[:, e]) for e in range(3)], axis=-1))


def _plus_side(flat, code, at, points, rows):
    """Plus-side mask of points[rows] against the nodes at, all of one split kind."""
    if code == _AXIS:
        return points[rows, flat.dim[at]] < flat.loc[at]
    pts = points[rows]
    if code == _EDGE:
        return _dot3(pts, flat.cut_normal[at]) >= 0.0
    kids = flat.children[at]
    if code == _PAIR:
        return _tri_min(pts, _edge_normals(flat.geometry[kids[:, 0]])) >= -BOUNDARY_EPS
    # quad: the halves' children are [corner0, central] and [corner1, corner2]
    quads = flat.geometry[flat.children[kids][:, [0, 1, 0, 1], [0, 0, 1, 1]]]
    sub = _quad_child(pts, _edge_normals(quads))
    return (sub == 0) | (sub == 2)


def descend(flat, deltas, points, nodes, values):
    """Walk every query from its node down to a leaf, one level per step.

    Each step tests the points against their nodes' splits, adds the
    plus or minus delta (_deltas) to values in path order (so the sums
    equal the telescoping reconstruction's, addition for addition) and
    moves each point to its child.  nodes and values are updated in
    place; nodes ends at the leaf rows.
    """
    kind, children = flat.kind, flat.children
    d_plus, d_minus = deltas
    active = np.flatnonzero(kind[nodes] != _LEAF)
    while active.size:
        at = nodes[active]
        kinds = kind[at]
        first = kinds[0]
        if (kinds == first).all():
            plus = _plus_side(flat, first, at, points, active)
        else:
            plus = np.empty(active.size, dtype=bool)
            for code in np.unique(kinds).tolist():
                sel = kinds == code
                plus[sel] = _plus_side(flat, code, at[sel], points, active[sel])
        values[active] += np.where(plus, d_plus[at], d_minus[at])
        nxt = np.where(plus, children[at, 0], children[at, 1])
        nodes[active] = nxt
        active = active[kind[nxt] != _LEAF]


def run_descent(trees, points, tree_of_point, shrunk=False):
    """Descend each point from the root of trees[tree_of_point].

    Returns (flat, values, leaves): compile_trees' flat tree, the
    telescoping sums and the leaf rows of flat.
    """
    flat, roots, intercepts = compile_trees(trees)
    leaves = roots[tree_of_point]
    values = intercepts[tree_of_point]
    descend(flat, _deltas(flat, shrunk), points, leaves, values)
    return flat, values, leaves


def batch_reconstruct(tree, points, shrunk=False):
    """Vectorized reconstruction at query points; returns (values, leaf_ids)."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    _, values, leaf_ids = run_descent([tree], points, np.zeros(points.shape[0], dtype=np.intp), shrunk)
    return values, leaf_ids


def _in_root(tree, point):
    geometry = tree.geometry[0]
    if tree.geometry_kind == "box":
        lo, hi = geometry[:, 0], geometry[:, 1]
        tol = 1e-9 * np.maximum(1.0, hi - lo)
        return bool(np.all(point >= lo - tol) and np.all(point <= hi + tol))
    return bool(tri_contains_many(geometry, point[None, :], eps=1e-9)[0])


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


def leaf_member_values(trees, shrunk=False):
    """(training ids, fitted values): every leaf member of the trees with its leaf's sum.

    Sums are built top-down one level at a time, each child adding its
    branch delta to its parent's sum, so a training point's value is the
    one descend computes for it, addition for addition.
    """
    flat, roots, intercepts = compile_trees(trees)
    d_plus, d_minus = _deltas(flat, shrunk)
    sums = np.zeros(flat.node_count())
    sums[roots] = intercepts
    for level in _internal_levels(flat, roots):
        kids = flat.children[level]
        sums[kids[:, 0]] = sums[level] + d_plus[level]
        sums[kids[:, 1]] = sums[level] + d_minus[level]
    leaves = np.flatnonzero(flat.kind == _LEAF)
    leaves = leaves[np.argsort(flat.start[leaves], kind="stable")]  # their slices tile perm in order
    return flat.perm, np.repeat(sums[leaves], flat.count[leaves])


def tree_fit_values(tree, shrunk=False):
    """Fitted values at the tree's own training points.

    Returns a vector aligned with tree.root.cell.members (for trees fit to
    a whole dataset this is simply index order).  Elementwise equal to
    reconstruct() at each training location.
    """
    ids, fitted = leaf_member_values([tree], shrunk)
    return fitted[np.argsort(ids)]


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

def _optional(column):
    """Column values as a list, None where unset (NaN)."""
    return [None if v != v else v for v in column.tolist()]


def _split_records(tree):
    """The split record of every node ({"kind", then its _SPLIT_PARAMS}), None at leaves."""
    params = {name: tree._columns[name][:tree.node_count()].tolist() for name in _PARAMS[tree.geometry_kind]}
    return [None if code == _LEAF else
            {"kind": _KINDS[code], **{name: params[name][i] for name in _SPLIT_PARAMS[_KINDS[code]]}}
            for i, code in enumerate(tree.kind.tolist())]


def tree_to_dict(tree):
    """JSON-ready dict: header plus flat node records.

    Node records are {id, parent, split, w, w_tilde, member_count}; cell
    geometry is replayed from the root geometry and the splits on load, so
    the round trip is bit-faithful for finite doubles.
    """
    corners = "bounds" if tree.geometry_kind == "box" else "vertices"
    nodes = [
        {"id": i, "parent": None if parent < 0 else parent, "split": split, "w": w,
         "w_tilde": w_tilde, "member_count": count}
        for i, (parent, split, w, w_tilde, count) in enumerate(zip(
            tree.parent.tolist(), _split_records(tree), _optional(tree.w),
            _optional(tree.w_tilde), tree.count.tolist()))
    ]
    return {"format": "uhwt-tree", "version": 1, "intercept": float(tree.intercept),
            "root": {"kind": tree.geometry_kind, corners: tree.geometry[0].tolist()}, "nodes": nodes}


def tree_from_dict(payload):
    """Rebuild a tree from tree_to_dict output (geometry replayed, no members)."""
    if payload.get("format") != "uhwt-tree":
        raise ValueError("not a serialized tree")
    records = sorted(payload["nodes"], key=lambda r: r["id"])
    geometry_kind = payload["root"]["kind"]
    geometry = np.asarray(payload["root"]["bounds" if geometry_kind == "box" else "vertices"], dtype=np.float64)
    c = _blank_columns(geometry_kind, geometry.shape, len(records))
    c["geometry"][0] = geometry
    splits = [rec["split"] for rec in records]
    if any(split is not None and split["kind"] not in _SPLIT_PARAMS for split in splits):
        raise ValueError("unknown split kind")
    c["kind"][:] = [_LEAF if split is None else _CODES[split["kind"]] for split in splits]
    c["count"][:] = [rec["member_count"] for rec in records]
    for name in ("w", "w_tilde"):
        c[name][:] = np.array([rec[name] for rec in records], dtype=np.float64)  # None reads as NaN
    parents = np.array([rec["parent"] for rec in records[1:]], dtype=np.intp)
    c["parent"][1:] = parents
    kids = np.argsort(parents, kind="stable").reshape(-1, 2) + 1  # siblings in id order, plus first
    c["children"][parents[kids[:, 0] - 1]] = kids
    for kind, names in _SPLIT_PARAMS.items():
        rows = np.flatnonzero(c["kind"] == _CODES[kind]).tolist()
        for name in names:
            if rows:
                c[name][rows] = [splits[i][name] for i in rows]
    tree = UHTree._of_columns(geometry_kind, c, payload["intercept"], None)
    for level in _internal_levels(tree, np.zeros(1, dtype=np.intp)):
        tree._derive_children(level)
    return tree
