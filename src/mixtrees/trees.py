"""Binary regression trees, their generative prior, and structure proposals.

Trees partition the input space with rules of the form ``x_v < c`` (ties go
right) drawn from fixed per-dimension cutpoint grids.  Each terminal node
carries a K-vector.  The prior makes a node internal with probability
``SPLIT_BASE * (1 + depth)^-SPLIT_POWER`` and picks rules uniformly from
the cutpoints still valid under the node's ancestors, which keeps trees
shallow.  The sampler explores structures with paired birth/death
proposals whose forward and reverse probabilities are recorded for the
acceptance ratio.

A tree is its rules and leaf vectors as parallel node lists in pre-order,
which alone fixes both children of every node.  It keeps, per node, the
depth, the index range of still-valid cutpoints and the training rows that
reach the node, all derived by one pre-order walk, so a move re-walks only
the subtree it changes instead of re-partitioning the data.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Callable, NamedTuple, Optional

import numpy as np


SPLIT_BASE = 0.95  # P(split) at the root
SPLIT_POWER = 2.0  # how fast P(split) decays with depth


def as_inputs(X) -> np.ndarray:
    """X as an (n, d) float array; a scalar or 1-d X is n points of one input."""
    X = np.asarray(X, dtype=float)
    return X.reshape(-1, 1) if X.ndim < 2 else X


def split_probability(depth: int) -> float:
    """Probability that a node at ``depth`` is internal."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    return SPLIT_BASE * (1.0 + depth) ** (-SPLIT_POWER)


class CutpointGrid:
    """Per-dimension candidate cut values, sorted ascending, as arrays
    (``cuts``) and as lists of Python floats (``cut_lists``)."""

    def __init__(self, cuts: list[np.ndarray]):
        self.cuts = [np.sort(np.asarray(c, dtype=float)) for c in cuts]
        self.cut_lists = [c.tolist() for c in self.cuts]

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
        X = as_inputs(X)
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
    root.  An internal node ``i`` splits on ``x[var[i]] < cut[i]``; its left
    child is node ``i + 1``, its right child the node after the left
    child's subtree.  A leaf has ``var`` -1, a NaN ``cut`` and its K-vector
    in ``values`` (None on internal nodes).

    With a grid, a tree also keeps each node's depth, its ``spans[i][v]``
    (the half-open index range of ``grid.cuts[v]`` still valid under its
    ancestors) and, in :meth:`node_rows`, the rows of one X reaching it.
    One pre-order walk derives all three, and a structure edit re-walks
    only the subtree it changes.  :attr:`key` is cached too, and every
    structure edit clears it.  A tree without a grid only routes and encodes.
    """

    _NODE_LISTS = ("var", "cut", "depths", "values", "spans", "_rows")

    def __init__(self, grid, var, cut, values):
        self.grid = grid
        self.var, self.cut, self.values = var, cut, values
        self.depths = self.spans = self._rows = self._X = self._key = None
        if grid is not None:
            self.depths, self.spans = [0] * len(var), [None] * len(var)
            self.spans[0] = tuple((0, c.size) for c in grid.cuts)
            self._refresh(0)

    @classmethod
    def root_only(cls, grid: CutpointGrid, value) -> "Tree":
        return cls(grid, [-1], [np.nan], [np.asarray(value, dtype=float)])

    def copy(self) -> "Tree":
        """A tree with its own node lists (leaf vectors and rows are shared)."""
        new = Tree.__new__(Tree)
        new.grid, new._X, new._key = self.grid, self._X, self._key
        for name in self._NODE_LISTS:
            lst = getattr(self, name)
            setattr(new, name, None if lst is None else list(lst))
        return new

    @property
    def key(self) -> tuple:
        """What routes rows: ``var`` and the cuts of the internal nodes."""
        if self._key is None:
            var = self.var
            self._key = tuple(var), tuple(c for v, c in zip(var, self.cut) if v >= 0)
        return self._key

    # ---- traversal -----------------------------------------------------

    def leaf_nodes(self) -> list[int]:
        return [i for i, v in enumerate(self.var) if v < 0]

    def leaves(self) -> list[Leaf]:
        return [Leaf(i, self.values[i]) for i in self.leaf_nodes()]

    def internal_nodes(self) -> list[int]:
        return [i for i, v in enumerate(self.var) if v >= 0]

    def nog_nodes(self) -> list[int]:
        """Internal nodes whose children are both leaves (collapsible)."""
        # A leaf left child at i + 1 puts the right child at i + 2.
        var = self.var
        return [
            i for i in range(len(var) - 2)
            if var[i] >= 0 and var[i + 1] < 0 and var[i + 2] < 0
        ]

    def n_leaves(self) -> int:
        return len(self.leaf_nodes())

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
        bounds, pending = [], [(np.full(d, -np.inf), np.full(d, np.inf))]
        for v, c in zip(self.var, self.cut):
            lo, hi = pending.pop()  # each node takes what its parent left
            bounds.append((lo, hi))
            if v >= 0:
                hi_l, lo_r = hi.copy(), lo.copy()
                hi_l[v] = min(hi[v], c)
                lo_r[v] = max(lo[v], c)
                pending += [(lo_r, hi), (lo, hi_l)]  # the left child comes first
        return bounds

    # ---- data assignment -------------------------------------------------

    def partition(self, X: np.ndarray) -> list[np.ndarray]:
        """Ascending row indices of X that reach each node, routed from the root."""
        X = as_inputs(X)
        rows = [np.arange(X.shape[0])] + [None] * (len(self.var) - 1)
        self._walk(0, X, rows, spans=False)
        return rows

    def node_rows(self, X: np.ndarray) -> list[np.ndarray]:
        """Rows of the (n, d) float array X reaching each node, cached for
        the X last asked about."""
        if self._X is not X:
            self._rows, self._X = self.partition(X), X
        return self._rows

    def _walk(self, first, X, rows, spans) -> tuple[int, bool]:
        """Walk the subtree at node ``first`` in pre-order, handing each
        child its facts from its parent's: with X, its rows of X in ``rows``;
        with ``spans``, its depth and spans.  Returns one past the subtree's
        last node, and whether every rule in it cuts strictly inside its
        node's interval: its cut is a cutpoint in the node's span (always
        True without ``spans``).
        """
        var, cut, depths, node_spans = self.var, self.cut, self.depths, self.spans
        inside, pending = True, []  # the facts of the right children to come
        i = first
        while True:
            v = var[i]
            if v < 0:
                if not pending:
                    return i + 1, inside
                child = pending.pop()  # node i + 1 is the nearest right child
            else:
                c = cut[i]
                rows_l = rows_r = depth = span_l = span_r = None
                if X is not None:
                    idx = rows[i]
                    mask = X[idx, v] < c
                    rows_l, rows_r = idx[mask], idx[~mask]
                if spans:
                    cuts, span = self.grid.cut_lists[v], node_spans[i]
                    lo, hi = span[v]
                    below, not_above = bisect_left(cuts, c), bisect_right(cuts, c)
                    inside = inside and lo <= below < hi
                    depth = depths[i] + 1
                    span_l = span[:v] + ((lo, min(hi, below)),) + span[v + 1 :]
                    span_r = span[:v] + ((max(lo, not_above), hi),) + span[v + 1 :]
                pending.append((rows_r, depth, span_r))
                child = rows_l, depth, span_l  # node i + 1 is the left child
            i += 1
            if X is not None:
                rows[i] = child[0]
            if spans:
                _, depths[i], node_spans[i] = child

    def _refresh(self, first: int) -> tuple[int, bool]:
        """Re-derive the depths, spans and cached rows below node ``first``;
        returns :meth:`_walk`'s subtree end and verdict."""
        return self._walk(first, self._X, self._rows, spans=True)

    def _node_lists(self) -> list[list]:
        lists = (getattr(self, name) for name in self._NODE_LISTS)
        return [lst for lst in lists if lst is not None]

    def _split(self, i: int, var: int, cut: float) -> None:
        """Turn leaf i into the rule ``x_var < cut`` over two copies of it."""
        for lst in self._node_lists():
            lst[i + 1 : i + 1] = [lst[i], lst[i]]
        self.var[i], self.cut[i], self.values[i] = var, cut, None
        self._key = None
        self._refresh(i)

    def _collapse(self, i: int) -> None:
        """Turn node i, whose children are leaves, into a leaf."""
        k = i + 1
        self.values[i] = 0.5 * (self.values[k] + self.values[k + 1])
        for lst in self._node_lists():
            del lst[k : k + 2]
        self.var[i], self.cut[i] = -1, np.nan
        self._key = None

    def _move_rule(self, i: int, var: int, cut: float) -> tuple[int, bool]:
        """Give internal node i the rule ``x_var < cut``.  Returns the end of
        its subtree and whether every rule in the subtree still cuts inside
        its node's interval (:meth:`_walk`)."""
        self.var[i], self.cut[i] = var, cut
        self._key = None
        return self._refresh(i)

    def leaf_slots(self, X: np.ndarray) -> np.ndarray:
        """For each row of X, the position in pre-order among the leaves of
        the leaf it reaches."""
        rows = self.partition(X)
        slots = np.empty(len(rows[0]), dtype=np.intp)
        for slot, i in enumerate(self.leaf_nodes()):
            slots[rows[i]] = slot
        return slots

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        """Leaf vector of every row of X, as an (n, K) array."""
        values = np.array([leaf.value for leaf in self.leaves()])
        return values.take(self.leaf_slots(X), axis=0)

    # ---- serialization -----------------------------------------------------

    def encode(self, leaf_values=None) -> str:
        """Deterministic pre-order text encoding of the tree.

        ``leaf_values``, when given, are the leaf vectors in pre-order and
        stand in for ``values``; one is taken per leaf, so consecutive
        trees can read theirs from one iterator.
        """
        if leaf_values is None:
            leaf_values = [self.values[i] for i in self.leaf_nodes()]
        leaf_values = iter(leaf_values)
        parts = []
        for i, v in enumerate(self.var):
            if v < 0:
                value = next(leaf_values)
                vals = " ".join(f"{v:.17g}" for v in value)
                parts.append(f"L {len(value)} {vals}")
            else:
                parts.append(f"I {self.var[i]} {self.cut[i]:.17g}")
        return " ".join(parts)

    @classmethod
    def decode(
        cls, text: str, grid: Optional[CutpointGrid] = None, k: Optional[int] = None
    ) -> "Tree":
        """Inverse of :meth:`encode`; without a grid the tree only routes
        and encodes.

        Raises ValueError on text it cannot parse, on a negative rule
        variable, on a leaf length below 1, on a non-finite cut or leaf
        value, and, when ``k`` is given, on a leaf of other than k values.
        """
        tokens = text.split()
        nodes = []  # (var, cut, leaf vector) in pre-order
        owed, pos = 1, 0  # nodes still to come; a rule owes one more
        while owed and pos < len(tokens):
            tag = tokens[pos]
            if tag == "L" and pos + 1 < len(tokens):
                n_values = int(tokens[pos + 1])
                if n_values < 1:
                    raise ValueError(f"leaf length below 1 near token {pos + 1}: {n_values}")
                if k is not None and n_values != k:
                    raise ValueError(
                        f"leaf of {n_values} values near token {pos + 1}, expected {k}"
                    )
                stop = pos + 2 + n_values
                if stop > len(tokens):
                    break
                leaf = [float(t) for t in tokens[pos + 2 : stop]]
                if not all(map(math.isfinite, leaf)):
                    raise ValueError(f"non-finite leaf value near token {pos + 1}")
                nodes.append((-1, np.nan, np.array(leaf)))
                owed -= 1
            elif tag == "I" and pos + 2 < len(tokens):
                stop, v, c = pos + 3, int(tokens[pos + 1]), float(tokens[pos + 2])
                if v < 0:
                    raise ValueError(f"negative rule variable near token {pos + 1}: {v}")
                if not math.isfinite(c):
                    raise ValueError(f"non-finite cut near token {pos + 1}")
                nodes.append((v, c, None))
                owed += 1
            elif tag in ("L", "I"):
                break
            else:
                raise ValueError(f"bad tree encoding near token {pos + 1}: {tag!r}")
            pos = stop
        if owed:
            raise ValueError("truncated tree encoding")
        if pos != len(tokens):
            raise ValueError("trailing tokens in tree encoding")
        var, cut, values = map(list, zip(*nodes))
        return cls(grid, var, cut, values)


def _log_rule_prob(tree: Tree, i: int) -> float:
    """Log prior probability of internal node i's rule given its ancestors:
    -inf when the rule's variable has no valid cut at node i."""
    n_cuts = tree.n_cuts(i, tree.var[i])
    if n_cuts == 0:
        return -math.inf
    return -math.log(len(tree.usable_vars(i))) - math.log(n_cuts)


def log_tree_prior(tree: Tree) -> float:
    """Log prior of a tree: node-type terms plus uniform rule probabilities."""
    total = 0.0
    for i, depth in enumerate(tree.depths):
        p = split_probability(depth)
        if tree.var[i] < 0:
            total += math.log1p(-p)
        else:
            total += math.log(p) + _log_rule_prob(tree, i)
    return total


class Proposal:
    """Outcome of a structure move; ``valid`` is False for auto-rejects.

    ``tree`` is the proposed tree.  A birth or death passes ``build``
    instead, which makes the tree on the first access of ``tree``, so a
    rejected one copies nothing; its ``log_reverse`` is counted on the
    current tree.  ``old_leaf_sets`` and ``new_leaf_sets`` are the row sets
    of the leaves whose log marginal likelihoods enter the ratio.
    """

    def __init__(
        self,
        kind: str,
        valid: bool,
        tree: Optional[Tree] = None,
        build: Optional[Callable[[], Tree]] = None,
        log_forward: float = 0.0,
        log_reverse: float = 0.0,
        log_prior_ratio: float = 0.0,
        old_leaf_sets: Optional[list] = None,
        new_leaf_sets: Optional[list] = None,
    ):
        self.kind, self.valid = kind, valid
        self._tree, self._build = tree, build
        self.log_forward, self.log_reverse = log_forward, log_reverse
        self.log_prior_ratio = log_prior_ratio
        self.old_leaf_sets = old_leaf_sets or []
        self.new_leaf_sets = new_leaf_sets or []

    @property
    def tree(self) -> Optional[Tree]:
        if self._build is not None:
            self._tree, self._build = self._build(), None
        return self._tree


def _birth_prior_terms(depth: int, n_vars: int, n_cuts: int) -> float:
    p_here = split_probability(depth)
    p_child = split_probability(depth + 1)
    return (
        math.log(p_here)
        + 2.0 * math.log1p(-p_child)
        - math.log1p(-p_here)
        - math.log(n_vars)
        - math.log(n_cuts)
    )


def _draw_rule(tree: Tree, i: int, usable_vars, rng):
    """Uniform variable, then uniform valid cut of it, at node i."""
    var = usable_vars[rng.integers(len(usable_vars))]
    lo, hi = tree.spans[i][var]
    return var, tree.grid.cut_lists[var][lo + rng.integers(hi - lo)], hi - lo


def _grown(tree: Tree, leaf: int, var: int, cut: float) -> Tree:
    """A copy of ``tree`` with ``leaf`` split by ``x_var < cut``."""
    new = tree.copy()
    new._split(leaf, var, cut)
    return new


def _collapsed(tree: Tree, node: int) -> Tree:
    """A copy of ``tree`` with ``node``'s two leaf children collapsed."""
    new = tree.copy()
    new._collapse(node)
    return new


def propose_birth(
    tree: Tree, X: np.ndarray, min_leaf_n: int, rng: np.random.Generator
) -> Proposal:
    """Grow a uniformly chosen leaf with a uniformly chosen rule.

    ``X`` is the (n, d) float array of training inputs.  The proposal is
    marked invalid when no leaf can grow or when either child would receive
    fewer than ``min_leaf_n`` training points.  The grown tree is built
    only when ``Proposal.tree`` is read; the reverse move's count of
    collapsible nodes comes from the current tree.
    """
    growable = tree.growable_leaves()
    if not growable:
        return Proposal("birth", valid=False)
    leaf = growable[rng.integers(len(growable))]
    usable_vars = tree.usable_vars(leaf)
    var, cut, n_cuts = _draw_rule(tree, leaf, usable_vars, rng)

    idx = tree.node_rows(X)[leaf]
    mask = X[idx, var] < cut
    idx_left, idx_right = idx[mask], idx[~mask]
    if min(idx_left.size, idx_right.size) < min_leaf_n:
        return Proposal("birth", valid=False)

    log_forward = -(
        math.log(len(growable)) + math.log(len(usable_vars)) + math.log(n_cuts)
    )
    log_prior_ratio = _birth_prior_terms(tree.depths[leaf], len(usable_vars), n_cuts)
    # The grown leaf becomes collapsible, and its parent stops being so if
    # it was: a collapsible node at leaf - 1 or leaf - 2 has the leaf as a child.
    nogs = tree.nog_nodes()
    n_nogs = len(nogs) + 1 - (leaf - 1 in nogs or leaf - 2 in nogs)
    return Proposal(
        "birth",
        valid=True,
        build=lambda: _grown(tree, leaf, var, cut),
        log_forward=log_forward,
        log_reverse=-math.log(n_nogs),
        log_prior_ratio=log_prior_ratio,
        old_leaf_sets=[idx],
        new_leaf_sets=[idx_left, idx_right],
    )


def propose_death(tree: Tree, X: np.ndarray, rng: np.random.Generator) -> Proposal:
    """Collapse a uniformly chosen internal node whose children are leaves;
    ``X`` is the (n, d) float array of training inputs.

    The collapsed tree is built only when ``Proposal.tree`` is read.  The
    reverse birth's terms come from the current tree: the collapse keeps
    the node's span and depth, and swaps its two leaf children for itself
    among the growable leaves.
    """
    nogs = tree.nog_nodes()
    if not nogs:
        return Proposal("death", valid=False)
    node = nogs[rng.integers(len(nogs))]
    log_forward = -math.log(len(nogs))

    rows = tree.node_rows(X)
    usable_vars = len(tree.usable_vars(node))
    n_cuts = tree.n_cuts(node, tree.var[node])
    growable = tree.growable_leaves()
    n_growable = len(growable) + (usable_vars > 0)
    n_growable -= (node + 1 in growable) + (node + 2 in growable)
    log_reverse = -(
        math.log(n_growable) + math.log(usable_vars) + math.log(n_cuts)
    )
    log_prior_ratio = -_birth_prior_terms(tree.depths[node], usable_vars, n_cuts)
    return Proposal(
        "death",
        valid=True,
        build=lambda: _collapsed(tree, node),
        log_forward=log_forward,
        log_reverse=log_reverse,
        log_prior_ratio=log_prior_ratio,
        old_leaf_sets=[rows[node + 1], rows[node + 2]],
        new_leaf_sets=[rows[node]],
    )


def propose_rule_change(
    tree: Tree, X: np.ndarray, min_leaf_n: int, rng: np.random.Generator
) -> Proposal:
    """Redraw the rule of a uniformly chosen internal node.

    Used to relocate cuts during sampler warmup, where birth/death pairs
    cannot cross the valley of removing a load-bearing split.  The move
    keeps the tree's shape and re-routes only the rows below the moved
    node, so every other leaf keeps its rows and its log marginal
    likelihood cancels from the ratio: ``old_leaf_sets`` and
    ``new_leaf_sets`` hold the subtree's leaves only.  The proposal is
    invalid when a leaf would get fewer than ``min_leaf_n`` rows or a rule
    in the subtree would no longer cut inside its node's interval.
    The prior ratio sums the rule terms of every internal node of the
    subtree, the moved node's own ``-log n_cuts`` included, while
    ``log_forward`` and ``log_reverse`` are both 0.  The move draws the new
    cut among n_cuts(new var) and the reverse among n_cuts(old var), so
    with two or more usable variables the ratio is off by
    n_cuts(old var) / n_cuts(new var).  Kept draws come from birth/death
    alone, so this bias stays in warmup.  ``X`` is the (n, d) float array
    of training inputs.
    """
    internals = tree.internal_nodes()
    if not internals:
        return Proposal("change", valid=False)
    node = internals[rng.integers(len(internals))]
    var, cut, _ = _draw_rule(tree, node, tree.usable_vars(node), rng)

    rows = tree.node_rows(X)
    new = tree.copy()
    end, inside = new._move_rule(node, var, cut)
    leaves = [i for i in range(node, end) if new.var[i] < 0]
    old_sets = [rows[i] for i in leaves]
    new_sets = [new._rows[i] for i in leaves]
    if not inside or any(idx.size < min_leaf_n for idx in new_sets):
        return Proposal("change", valid=False)
    # Only the rules of the subtree change their ancestor intervals.
    log_prior_ratio = sum(
        _log_rule_prob(new, i) - _log_rule_prob(tree, i)
        for i in range(node, end)
        if new.var[i] >= 0
    )
    return Proposal(
        "change",
        valid=True,
        tree=new,
        log_prior_ratio=log_prior_ratio,
        old_leaf_sets=old_sets,
        new_leaf_sets=new_sets,
    )


def sample_tree_from_prior(
    grid: CutpointGrid, rng: np.random.Generator, k: int = 1
) -> Tree:
    """Draw a tree structure from the generative prior (zero leaf vectors)."""
    tree = Tree.root_only(grid, np.zeros(k))
    # A split inserts its children right after the node, so walking the
    # lists in order visits the nodes in pre-order as they are created.
    i = 0
    while i < len(tree.var):
        usable = tree.usable_vars(i)
        if usable and rng.random() < split_probability(tree.depths[i]):
            var, cut, _ = _draw_rule(tree, i, usable, rng)
            tree._split(i, var, cut)
        i += 1
    return tree
