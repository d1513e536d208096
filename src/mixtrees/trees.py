"""Binary regression trees, their generative prior, and structure proposals.

Trees partition the input space with rules of the form ``x_v < c`` (ties go
right) drawn from fixed per-dimension cutpoint grids.  Each terminal node
carries a K-vector.  The prior makes a node internal with probability
``base * (1 + depth)^-power`` and picks rules uniformly from the cutpoints
still valid under the node's ancestors, which keeps trees shallow.  The
sampler explores structures with paired birth/death proposals whose forward
and reverse probabilities are recorded for the acceptance ratio.

A tree is a set of parallel node lists in pre-order.  It keeps, per node,
the index range of still-valid cutpoints and the training rows that reach
the node, so a move updates only the nodes and rows below the node it
changes instead of re-partitioning the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np


@dataclass
class TreePriorConfig:
    """Tree-generating prior and proposal settings."""

    split_base: float = 0.95
    split_power: float = 2.0
    cutpoints_per_dim: int = 100
    min_leaf_n: int = 1

    def __post_init__(self):
        if not 0.0 < self.split_base < 1.0:
            raise ValueError("split_base must be in (0, 1)")
        if self.split_power < 0.0:
            raise ValueError("split_power must be nonnegative")


def split_probability(depth: int, cfg: TreePriorConfig) -> float:
    """Probability that a node at ``depth`` is internal."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    return cfg.split_base * (1.0 + depth) ** (-cfg.split_power)


class CutpointGrid:
    """Per-dimension candidate cut values, sorted ascending."""

    def __init__(self, cuts: list[np.ndarray]):
        self.cuts = [np.sort(np.asarray(c, dtype=float)) for c in cuts]

    @classmethod
    def from_data(
        cls, X: np.ndarray, n_per_dim: int = 100, method: str = "uniform"
    ) -> "CutpointGrid":
        """Candidate cuts from the observed data.

        ``uniform`` spaces ``n_per_dim`` points equally over the observed
        range (interior only).  ``midpoints`` places one cut between each
        pair of adjacent observed values, so no two rules can isolate an
        interval that contains no data.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        cuts = []
        for v in range(X.shape[1]):
            col = X[:, v]
            if method == "uniform":
                lo, hi = col.min(), col.max()
                cuts.append(np.linspace(lo, hi, n_per_dim + 2)[1:-1])
            elif method == "midpoints":
                uniq = np.unique(col)
                mids = 0.5 * (uniq[:-1] + uniq[1:])
                if mids.size > n_per_dim:
                    keep = np.linspace(0, mids.size - 1, n_per_dim).round().astype(int)
                    mids = mids[np.unique(keep)]
                cuts.append(mids)
            else:
                raise ValueError(f"unknown cutpoint method {method!r}")
        return cls(cuts)

    @property
    def dim(self) -> int:
        return len(self.cuts)


class Leaf(NamedTuple):
    """A leaf of a :class:`Tree`: its node index and its K-vector."""

    node: int
    value: np.ndarray


class Tree:
    """A decision tree over a fixed cutpoint grid with K-vector leaves.

    The nodes are stored in pre-order as parallel lists.  Node 0 is the
    root.  An internal node ``i`` splits on ``x[var[i]] < cut[i]`` with its
    left child at ``left[i] == i + 1`` and its right child at ``right[i]``;
    a leaf has ``var``, ``left`` and ``right`` equal to -1 and a NaN
    ``cut``.  ``values[i]`` is the K-vector of leaf ``i`` (internal nodes
    keep a stale one).  With a grid, ``spans[i][v]`` is the half-open index
    range of ``grid.cuts[v]`` still valid under node ``i``'s ancestors.

    :meth:`node_rows` caches the rows of one X that reach each node; the
    structure moves keep that cache up to date, re-routing only the rows
    below the node they change.
    """

    _NODE_LISTS = (
        "var", "cut", "left", "right", "depths", "values", "spans", "_rows"
    )

    def __init__(self, grid, var, cut, left, right, depths, values):
        self.grid = grid
        self.var, self.cut, self.left, self.right = var, cut, left, right
        self.depths, self.values = depths, values
        self.spans = None
        if grid is not None:
            self.spans = [tuple((0, c.size) for c in grid.cuts)]
            self.spans += [None] * (len(var) - 1)
        self._rows = self._X = None
        self._refresh(0, len(var))

    @classmethod
    def root_only(cls, grid: CutpointGrid, value) -> "Tree":
        value = np.asarray(value, dtype=float)
        return cls(grid, [-1], [np.nan], [-1], [-1], [0], [value])

    def copy(self) -> "Tree":
        """A tree with its own node lists (leaf vectors and rows are shared)."""
        new = Tree.__new__(Tree)
        new.grid, new._X = self.grid, self._X
        for name in self._NODE_LISTS:
            lst = getattr(self, name)
            setattr(new, name, None if lst is None else list(lst))
        return new

    # ---- traversal -----------------------------------------------------

    def leaf_nodes(self) -> list[int]:
        return [i for i, c in enumerate(self.left) if c < 0]

    def leaves(self) -> list[Leaf]:
        return [Leaf(i, self.values[i]) for i in self.leaf_nodes()]

    def internal_nodes(self) -> list[int]:
        return [i for i, c in enumerate(self.left) if c >= 0]

    def nog_nodes(self) -> list[int]:
        """Internal nodes whose children are both leaves (collapsible)."""
        left, right = self.left, self.right
        return [
            i for i, c in enumerate(left)
            if c >= 0 and left[c] < 0 and left[right[i]] < 0
        ]

    def n_leaves(self) -> int:
        return len(self.leaf_nodes())

    def depth(self) -> int:
        return max(self.depths)

    # ---- cutpoint bookkeeping -------------------------------------------

    def usable_vars(self, i: int) -> list[int]:
        """Dimensions with at least one cutpoint still valid at node i."""
        return [v for v, (lo, hi) in enumerate(self.spans[i]) if hi > lo]

    def n_cuts(self, i: int, v: int) -> int:
        lo, hi = self.spans[i][v]
        return max(hi - lo, 0)

    def growable_leaves(self) -> list[int]:
        """Leaves with at least one valid cutpoint in some dimension."""
        return [i for i in self.leaf_nodes() if self.usable_vars(i)]

    def node_bounds(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Ancestor-implied (lo, hi) value interval per dimension, per node."""
        d = self.grid.dim
        bounds = [(np.full(d, -np.inf), np.full(d, np.inf))]
        bounds += [None] * (len(self.var) - 1)
        for i in self.internal_nodes():
            lo, hi = bounds[i]
            v, c = self.var[i], self.cut[i]
            hi_l, lo_r = hi.copy(), lo.copy()
            hi_l[v] = min(hi[v], c)
            lo_r[v] = max(lo[v], c)
            bounds[self.left[i]], bounds[self.right[i]] = (lo, hi_l), (lo_r, hi)
        return bounds

    # ---- data assignment -------------------------------------------------

    def partition(self, X: np.ndarray) -> list[np.ndarray]:
        """Ascending row indices of X that reach each node, routed from the root."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        rows = [np.arange(X.shape[0])] + [None] * (len(self.var) - 1)
        return self._route(X, rows, 0, len(self.var))

    def node_rows(self, X: np.ndarray) -> list[np.ndarray]:
        """Rows of X reaching each node, cached for the X last asked about."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self._X is not X:
            self._rows, self._X = self.partition(X), X
        return self._rows

    def _route(self, X, rows, first, stop):
        # Pre-order: every parent's rows are set before its children's.
        for i in range(first, stop):
            c = self.left[i]
            if c >= 0:
                idx = rows[i]
                mask = X[idx, self.var[i]] < self.cut[i]
                rows[c], rows[self.right[i]] = idx[mask], idx[~mask]
        return rows

    def _refresh(self, first, stop):
        """Recompute the spans and cached rows of the children of nodes
        ``first .. stop - 1``, in pre-order."""
        if self.spans is not None:
            for i in range(first, stop):
                if self.left[i] < 0:
                    continue
                v, cuts = self.var[i], self.grid.cuts[self.var[i]]
                lo, hi = self.spans[i][v]
                below = int(np.searchsorted(cuts, self.cut[i], "left"))
                not_above = int(np.searchsorted(cuts, self.cut[i], "right"))
                left, right = list(self.spans[i]), list(self.spans[i])
                left[v], right[v] = (lo, min(hi, below)), (max(lo, not_above), hi)
                self.spans[self.left[i]] = tuple(left)
                self.spans[self.right[i]] = tuple(right)
        if self._rows is not None:
            self._route(self._X, self._rows, first, stop)

    def _subtree_end(self, i: int) -> int:
        """One past the last node of the subtree rooted at i."""
        while self.left[i] >= 0:
            i = self.right[i]
        return i + 1

    def _node_lists(self) -> list[list]:
        lists = (getattr(self, name) for name in self._NODE_LISTS)
        return [lst for lst in lists if lst is not None]

    def _split(self, i: int, var: int, cut: float) -> None:
        """Turn leaf i into the rule ``x_var < cut`` over two copies of it."""
        k = i + 1
        self.left = [c + 2 if c > i else c for c in self.left]
        self.right = [c + 2 if c > i else c for c in self.right]
        for lst in self._node_lists():
            lst[k:k] = [lst[i], lst[i]]
        self.depths[k] = self.depths[k + 1] = self.depths[i] + 1
        self.var[i], self.cut[i], self.left[i], self.right[i] = var, cut, k, k + 1
        self._refresh(i, k)

    def _collapse(self, i: int) -> None:
        """Turn node i, whose children are leaves, into a leaf."""
        k = i + 1
        self.values[i] = 0.5 * (self.values[k] + self.values[k + 1])
        for lst in self._node_lists():
            del lst[k : k + 2]
        self.left = [c - 2 if c > i else c for c in self.left]
        self.right = [c - 2 if c > i else c for c in self.right]
        self.var[i], self.cut[i], self.left[i], self.right[i] = -1, np.nan, -1, -1

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        """Leaf vector of every row of X, as an (n, K) array.

        All rows descend together, one level per pass: left iff
        ``x_var < cut``, ties to the right.  A leaf's NaN cut sends its
        rows "right", to itself.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        n, d = X.shape
        node = np.zeros(n, dtype=np.intp)
        if len(self.var) > 1:
            left = np.array(self.left)
            right = np.where(left < 0, np.arange(left.size), self.right)
            var, cut = np.maximum(self.var, 0), np.array(self.cut)
            flat, row_start = X.ravel(), np.arange(0, n * d, d)
            for _ in range(self.depth()):
                go_left = flat.take(row_start + var.take(node)) < cut.take(node)
                node = np.where(go_left, left.take(node), right.take(node))
        return np.array(self.values).take(node, axis=0)

    # ---- serialization -----------------------------------------------------

    def encode(self) -> str:
        """Deterministic pre-order text encoding of the tree."""
        parts = []
        for i, c in enumerate(self.left):
            if c < 0:
                value = self.values[i]
                vals = " ".join(f"{v:.17g}" for v in value)
                parts.append(f"L {len(value)} {vals}")
            else:
                parts.append(f"I {self.var[i]} {self.cut[i]:.17g}")
        return " ".join(parts)

    @classmethod
    def decode(cls, text: str, grid: Optional[CutpointGrid] = None) -> "Tree":
        """Inverse of :meth:`encode`; without a grid the tree only evaluates."""
        tokens = text.split()
        var, cut, left, right, depths, values = [], [], [], [], [], []
        waiting = []  # internal nodes whose right child is still to come
        pos = 0
        while pos < len(tokens):
            i = len(var)
            if i == 0:
                depth = 0
            elif left[i - 1] == i:  # left child of the node before it
                depth = depths[i - 1] + 1
            elif waiting:
                parent = waiting.pop()
                right[parent] = i
                depth = depths[parent] + 1
            else:
                raise ValueError("trailing tokens in tree encoding")
            tag = tokens[pos]
            if tag == "L" and pos + 1 < len(tokens):
                stop = pos + 2 + int(tokens[pos + 1])
                values.append(np.array([float(t) for t in tokens[pos + 2 : stop]]))
                var.append(-1)
                cut.append(np.nan)
                left.append(-1)
            elif tag == "I" and pos + 2 < len(tokens):
                stop = pos + 3
                values.append(None)
                var.append(int(tokens[pos + 1]))
                cut.append(float(tokens[pos + 2]))
                left.append(i + 1)
                waiting.append(i)
            elif tag in ("L", "I"):
                break
            else:
                raise ValueError(f"bad tree encoding near token {pos + 1}: {tag!r}")
            right.append(-1)
            depths.append(depth)
            pos = stop
        if pos != len(tokens) or waiting or not var:
            raise ValueError("truncated tree encoding")
        for i in reversed(range(len(var))):
            if values[i] is None:
                values[i] = values[i + 1]  # stale, like any internal node's
        return cls(grid, var, cut, left, right, depths, values)


def log_tree_prior(tree: Tree, cfg: TreePriorConfig) -> float:
    """Log prior of a tree: node-type terms plus uniform rule probabilities."""
    total = 0.0
    for i, depth in enumerate(tree.depths):
        p = split_probability(depth, cfg)
        if tree.left[i] < 0:
            total += np.log1p(-p)
        else:
            n_vars = len(tree.usable_vars(i))
            n_cuts = tree.n_cuts(i, tree.var[i])
            total += np.log(p) - np.log(n_vars) - np.log(n_cuts)
    return float(total)


@dataclass
class Proposal:
    """Outcome of a structure move; ``valid`` is False for auto-rejects."""

    kind: str
    valid: bool
    tree: Optional[Tree] = None
    log_forward: float = 0.0
    log_reverse: float = 0.0
    log_prior_ratio: float = 0.0
    old_leaf_sets: list = field(default_factory=list)
    new_leaf_sets: list = field(default_factory=list)


def _birth_prior_terms(depth: int, n_vars: int, n_cuts: int, cfg) -> float:
    p_here = split_probability(depth, cfg)
    p_child = split_probability(depth + 1, cfg)
    return (
        np.log(p_here)
        + 2.0 * np.log1p(-p_child)
        - np.log1p(-p_here)
        - np.log(n_vars)
        - np.log(n_cuts)
    )


def _draw_rule(tree: Tree, i: int, usable_vars, rng):
    """Uniform variable, then uniform valid cut of it, at node i."""
    var = usable_vars[rng.integers(len(usable_vars))]
    lo, hi = tree.spans[i][var]
    return var, float(tree.grid.cuts[var][lo + rng.integers(hi - lo)]), hi - lo


def propose_birth(
    tree: Tree, X: np.ndarray, cfg: TreePriorConfig, rng: np.random.Generator
) -> Proposal:
    """Grow a uniformly chosen leaf with a uniformly chosen rule.

    The proposal is marked invalid when no leaf can grow or when either
    child would receive fewer than ``min_leaf_n`` training points.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    growable = tree.growable_leaves()
    if not growable:
        return Proposal("birth", valid=False)
    leaf = growable[rng.integers(len(growable))]
    usable_vars = tree.usable_vars(leaf)
    var, cut, n_cuts = _draw_rule(tree, leaf, usable_vars, rng)

    idx = tree.node_rows(X)[leaf]
    mask = X[idx, var] < cut
    idx_left, idx_right = idx[mask], idx[~mask]
    if min(idx_left.size, idx_right.size) < cfg.min_leaf_n:
        return Proposal("birth", valid=False)

    log_forward = -(
        np.log(len(growable)) + np.log(len(usable_vars)) + np.log(n_cuts)
    )
    log_prior_ratio = _birth_prior_terms(
        tree.depths[leaf], len(usable_vars), n_cuts, cfg
    )
    new = tree.copy()
    new._split(leaf, var, cut)
    log_reverse = -np.log(len(new.nog_nodes()))
    return Proposal(
        "birth",
        valid=True,
        tree=new,
        log_forward=float(log_forward),
        log_reverse=float(log_reverse),
        log_prior_ratio=float(log_prior_ratio),
        old_leaf_sets=[idx],
        new_leaf_sets=[idx_left, idx_right],
    )


def propose_death(
    tree: Tree, X: np.ndarray, cfg: TreePriorConfig, rng: np.random.Generator
) -> Proposal:
    """Collapse a uniformly chosen internal node whose children are leaves."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    nogs = tree.nog_nodes()
    if not nogs:
        return Proposal("death", valid=False)
    node = nogs[rng.integers(len(nogs))]
    log_forward = -np.log(len(nogs))

    rows = tree.node_rows(X)
    var = tree.var[node]
    new = tree.copy()
    new._collapse(node)
    usable_vars = len(new.usable_vars(node))
    n_cuts = new.n_cuts(node, var)
    log_reverse = -(
        np.log(len(new.growable_leaves())) + np.log(usable_vars) + np.log(n_cuts)
    )
    log_prior_ratio = -_birth_prior_terms(new.depths[node], usable_vars, n_cuts, cfg)
    return Proposal(
        "death",
        valid=True,
        tree=new,
        log_forward=float(log_forward),
        log_reverse=float(log_reverse),
        log_prior_ratio=float(log_prior_ratio),
        old_leaf_sets=[rows[node + 1], rows[node + 2]],
        new_leaf_sets=[rows[node]],
    )


def propose_rule_change(
    tree: Tree, X: np.ndarray, cfg: TreePriorConfig, rng: np.random.Generator
) -> Proposal:
    """Redraw the rule of a uniformly chosen internal node (symmetric move).

    Used to relocate cuts during sampler warmup, where birth/death pairs
    cannot cross the valley of removing a load-bearing split.  The proposal
    is symmetric in (var, cut), so only the tree-prior difference (from
    descendants' rule sets) and the likelihood enter the acceptance ratio.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    internals = tree.internal_nodes()
    if not internals:
        return Proposal("change", valid=False)
    node = internals[rng.integers(len(internals))]
    var, cut, _ = _draw_rule(tree, node, tree.usable_vars(node), rng)

    rows = tree.node_rows(X)
    old_sets = [rows[i] for i in tree.leaf_nodes()]
    new = tree.copy()
    new.var[node], new.cut[node] = var, cut
    new._refresh(node, new._subtree_end(node))
    new_sets = [new._rows[i] for i in new.leaf_nodes()]
    if any(idx.size < cfg.min_leaf_n for idx in new_sets):
        return Proposal("change", valid=False)
    # Descendant rules must stay usable under the new ancestor interval.
    bounds = new.node_bounds()
    for i in new.internal_nodes():
        lo, hi = bounds[i]
        if not lo[new.var[i]] < new.cut[i] < hi[new.var[i]]:
            return Proposal("change", valid=False)
    log_prior_ratio = log_tree_prior(new, cfg) - log_tree_prior(tree, cfg)
    return Proposal(
        "change",
        valid=True,
        tree=new,
        log_forward=0.0,
        log_reverse=0.0,
        log_prior_ratio=float(log_prior_ratio),
        old_leaf_sets=old_sets,
        new_leaf_sets=new_sets,
    )


def sample_tree_from_prior(
    grid: CutpointGrid, cfg: TreePriorConfig, rng: np.random.Generator, k: int = 1
) -> Tree:
    """Draw a tree structure from the generative prior (zero leaf vectors)."""
    tree = Tree.root_only(grid, np.zeros(k))
    # A split inserts its children right after the node, so walking the
    # lists in order visits the nodes in pre-order as they are created.
    i = 0
    while i < len(tree.var):
        usable = tree.usable_vars(i)
        if usable and rng.random() < split_probability(tree.depths[i], cfg):
            var, cut, _ = _draw_rule(tree, i, usable, rng)
            tree._split(i, var, cut)
        i += 1
    return tree
