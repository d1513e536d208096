import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixtrees.node_model import LeafPrior, NodeData, log_marginal_likelihood
from mixtrees.trees import (
    CutpointGrid,
    Tree,
    _birth_prior_terms,
    _draw_rule,
    log_tree_prior,
    propose_birth,
    propose_death,
    propose_rule_change,
    sample_tree_from_prior,
    split_probability,
)


@pytest.fixture
def grid1d():
    X = np.linspace(0.0, 1.0, 50)[:, None]
    return CutpointGrid.from_data(X, 100)


def build_depth2_tree(grid):
    """Root splits at x < 0.5; left child splits again at x < 0.25."""
    return Tree.decode("I 0 0.5 I 0 0.25 L 1 1 L 1 2 L 1 3", grid)


def lookup(tree, x):
    """The leaf value of one input, through a one-row evaluate."""
    return tree.evaluate([[x]])[0, 0]


class TestSplitProbability:
    def test_depth_zero_is_base(self):
        assert split_probability(0) == 0.95

    def test_depth_one_quarter(self):
        assert split_probability(1) == pytest.approx(0.95 / 4)


class TestAssignLeaf:
    def test_root_only_tree_returns_root(self, grid1d):
        tree = Tree.root_only(grid1d, np.array([7.0]))
        for x in (-10.0, 0.2, 99.0):
            assert lookup(tree, x) == 7.0

    def test_tie_goes_right(self, grid1d):
        tree = Tree.decode("I 0 0.5 L 1 -1 L 1 1", grid1d)
        assert lookup(tree, 0.5) == 1.0
        assert lookup(tree, 0.4999) == -1.0

    def test_depth2_manual_trace(self, grid1d):
        tree = build_depth2_tree(grid1d)
        # x=0.1: left at 0.5, left at 0.25 -> leaf value 1
        assert lookup(tree, 0.1) == 1.0
        # x=0.3: left at 0.5, right at 0.25 -> leaf value 2
        assert lookup(tree, 0.3) == 2.0
        # x=0.9: right at root -> leaf value 3
        assert lookup(tree, 0.9) == 3.0

    def test_every_point_lands_in_exactly_one_leaf(self, grid1d):
        rng = np.random.default_rng(5)
        X = rng.uniform(-0.2, 1.2, size=(10_000, 1))
        for seed in range(5):
            tree = sample_tree_from_prior(grid1d, np.random.default_rng(seed))
            counts = np.zeros(X.shape[0], dtype=int)
            rows = tree.partition(X)
            for leaf in tree.leaf_nodes():
                counts[rows[leaf]] += 1
            assert np.all(counts == 1)

    def test_evaluate_matches_assign(self, grid1d):
        tree = build_depth2_tree(grid1d)
        X = np.random.default_rng(0).uniform(0, 1, size=(100, 1))
        vals = tree.evaluate(X)
        x = X[:, 0]
        expected = np.where(x < 0.25, 1.0, np.where(x < 0.5, 2.0, 3.0))[:, None]
        assert np.array_equal(vals, expected)


class TestLogTreePrior:
    def test_root_only(self, grid1d):
        tree = Tree.root_only(grid1d, np.array([0.0]))
        assert log_tree_prior(tree) == pytest.approx(np.log(1 - 0.95))

    def test_single_split(self, grid1d):
        tree = Tree.decode(f"I 0 {grid1d.cuts[0][49]:.17g} L 1 0 L 1 0", grid1d)
        expect = (
            np.log(0.95)
            + 2 * np.log(1 - 0.95 / 4)
            + np.log(1.0 / (1 * 100))
        )
        assert log_tree_prior(tree) == pytest.approx(expect, rel=1e-12)

    def test_depth2_matches_enumeration_oracle(self, grid1d):
        # Independent accounting: explicitly multiply out the generative
        # process for the hand-built depth-2 tree.
        tree = build_depth2_tree(grid1d)
        cuts = grid1d.cuts[0]
        p0, p1, p2 = (split_probability(d) for d in (0, 1, 2))
        n_below_half = int(np.sum(cuts < 0.5))
        expect = (
            np.log(p0) + np.log(1.0 / cuts.size)       # root rule
            + np.log(p1) + np.log(1.0 / n_below_half)  # left child rule
            + 2 * np.log(1 - p2)                       # two deep leaves
            + np.log(1 - p1)                           # right leaf
        )
        assert log_tree_prior(tree) == pytest.approx(expect, rel=1e-12)

    def test_rule_without_valid_cut_is_impossible(self):
        # Under x < 0.25 no cut of {0.25, 0.5, 0.75} is left, so the prior
        # never makes the rule x < 0.1 there.
        grid = CutpointGrid([np.array([0.25, 0.5, 0.75])])
        tree = Tree.decode("I 0 0.5 I 0 0.25 I 0 0.1 L 1 0 L 1 0 L 1 0 L 1 0", grid)
        assert log_tree_prior(tree) == -np.inf

    def test_prior_equals_birth_path_probability(self, grid1d):
        # Growing the single-split tree from the root: log prior difference
        # equals the birth move's prior ratio bookkeeping.
        rng = np.random.default_rng(11)
        X = np.linspace(0.0, 1.0, 50)[:, None]
        base = Tree.root_only(grid1d, np.array([0.0]))
        prop = propose_birth(base, X, 1, rng)
        assert prop.valid
        delta = log_tree_prior(prop.tree) - log_tree_prior(base)
        assert prop.log_prior_ratio == pytest.approx(delta, rel=1e-12)


class TestProposals:
    def test_birth_forward_probability_uniform_choices(self):
        # Root-only tree, one dimension, 100 cutpoints: 1 / (1 * 1 * 100).
        X = np.linspace(0.0, 1.0, 50)[:, None]
        grid = CutpointGrid.from_data(X, 100)
        tree = Tree.root_only(grid, np.array([0.0]))
        prop = propose_birth(tree, X, 1, np.random.default_rng(0))
        assert prop.valid
        assert prop.log_forward == pytest.approx(np.log(1.0 / 100))

    def test_birth_never_creates_empty_child(self):
        X = np.linspace(0.0, 1.0, 10)[:, None]
        grid = CutpointGrid.from_data(X, 100)
        rng = np.random.default_rng(3)
        for _ in range(200):
            tree = Tree.root_only(grid, np.array([0.0]))
            prop = propose_birth(tree, X, 1, rng)
            if prop.valid:
                for idx in prop.new_leaf_sets:
                    assert idx.size >= 1

    def test_birth_respects_min_leaf_n(self):
        X = np.linspace(0.0, 1.0, 10)[:, None]
        grid = CutpointGrid.from_data(X, 100)
        rng = np.random.default_rng(3)
        # 10 points cannot split into two groups of >= 6: always invalid.
        for _ in range(50):
            prop = propose_birth(Tree.root_only(grid, np.array([0.0])), X, 6, rng)
            assert not prop.valid

    def test_death_on_root_only_invalid(self, grid1d):
        X = np.linspace(0.0, 1.0, 50)[:, None]
        tree = Tree.root_only(grid1d, np.array([0.0]))
        prop = propose_death(tree, X, np.random.default_rng(0))
        assert not prop.valid

    def test_death_collapses_single_split_to_root(self, grid1d):
        X = np.linspace(0.0, 1.0, 50)[:, None]
        tree = Tree.root_only(grid1d, np.array([0.0]))
        prop = propose_birth(tree, X, 1, np.random.default_rng(1))
        dead = propose_death(prop.tree, X, np.random.default_rng(2))
        assert dead.valid
        assert dead.tree.n_leaves() == 1

    def test_birth_death_probabilities_are_symmetric(self, grid1d):
        # On the pair (1-leaf tree) <-> (2-leaf tree), the death reverse
        # probability must equal the matching birth forward probability and
        # the prior ratios must cancel.
        X = np.linspace(0.0, 1.0, 50)[:, None]
        rng = np.random.default_rng(7)
        base = Tree.root_only(grid1d, np.array([0.0]))
        birth = propose_birth(base, X, 1, rng)
        assert birth.valid
        death = propose_death(birth.tree, X, rng)
        assert death.valid
        assert death.log_reverse == pytest.approx(birth.log_forward, rel=1e-12)
        assert death.log_forward == pytest.approx(birth.log_reverse, rel=1e-12)
        assert death.log_prior_ratio == pytest.approx(-birth.log_prior_ratio, rel=1e-12)

    def test_death_after_birth_restores_structure(self, grid1d):
        X = np.linspace(0.0, 1.0, 50)[:, None]
        rng = np.random.default_rng(9)
        base = Tree.root_only(grid1d, np.array([4.2]))
        birth = propose_birth(base, X, 1, rng)
        death = propose_death(birth.tree, X, rng)
        assert death.tree.n_leaves() == 1
        # membership restored
        assert np.array_equal(death.new_leaf_sets[0], np.arange(50))


class TestLazyProposals:
    """A birth or death counts its reverse move on the current tree and
    builds the proposed tree only when ``tree`` is read; the counts must be
    exactly those of the built tree."""

    @staticmethod
    def first_difference(a, b):
        """The first node index where the two trees' ``var`` lists differ."""
        return next(i for i, (u, v) in enumerate(zip(a.var, b.var)) if u != v)

    def test_reverse_terms_match_built_tree(self):
        rng = np.random.default_rng(17)
        X = rng.uniform(size=(30, 2))
        seen = set()
        for n_cuts in (2, 3, 6):
            grid = CutpointGrid.from_data(X, n_cuts)
            for _ in range(150):
                tree = sample_tree_from_prior(grid, rng)
                nogs = tree.nog_nodes()
                birth = propose_birth(tree, X, 1, rng)
                if birth.valid:
                    new = birth.tree
                    leaf = self.first_difference(tree, new)
                    seen.add(("parent is a nog", leaf - 1 in nogs or leaf - 2 in nogs))
                    assert birth.log_reverse == -math.log(len(new.nog_nodes()))
                death = propose_death(tree, X, rng)
                if death.valid:
                    new = death.tree
                    node = self.first_difference(tree, new)
                    growable = tree.growable_leaves()
                    seen.add(("a child grows", node + 1 in growable or node + 2 in growable))
                    n_vars = len(new.usable_vars(node))
                    n_cuts_node = new.n_cuts(node, tree.var[node])
                    assert death.log_reverse == -(
                        math.log(len(new.growable_leaves()))
                        + math.log(n_vars)
                        + math.log(n_cuts_node)
                    )
                    assert death.log_prior_ratio == -_birth_prior_terms(
                        new.depths[node], n_vars, n_cuts_node
                    )
        assert seen == {
            ("parent is a nog", True), ("parent is a nog", False),
            ("a child grows", True), ("a child grows", False),
        }

    def test_tree_built_once_on_first_read(self, grid1d, monkeypatch):
        X = np.linspace(0.0, 1.0, 50)[:, None]
        base = Tree.root_only(grid1d, np.array([0.0]))
        copies = []
        copy_tree = Tree.copy

        def counted(self):
            copies.append(self)
            return copy_tree(self)

        monkeypatch.setattr(Tree, "copy", counted)
        rng = np.random.default_rng(1)
        birth = propose_birth(base, X, 1, rng)
        assert birth.valid and copies == []
        grown = birth.tree
        assert birth.tree is grown and copies == [base]
        death = propose_death(grown, X, rng)
        assert death.valid and copies == [base]
        assert death.tree.n_leaves() == 1 and copies == [base, grown]


class TestPriorSampling:
    def test_prior_trees_stay_shallow(self, grid1d):
        rng = np.random.default_rng(2024)
        n_samples = 100_000
        leaves = np.empty(n_samples)
        depths = np.empty(n_samples)
        for i in range(n_samples):
            t = sample_tree_from_prior(grid1d, rng)
            leaves[i] = t.n_leaves()
            depths[i] = max(t.depths)
        assert 2.0 <= leaves.mean() <= 4.0
        assert depths.mean() <= 3.0


class TestSerialization:
    def test_round_trip(self, grid1d):
        tree = build_depth2_tree(grid1d)
        text = tree.encode()
        back = Tree.decode(text, grid1d)
        assert back.encode() == text
        X = np.random.default_rng(1).uniform(0, 1, size=(50, 1))
        assert np.array_equal(back.evaluate(X), tree.evaluate(X))

    def test_leaves_pair_nodes_with_values(self, grid1d):
        tree = build_depth2_tree(grid1d)
        assert [leaf.node for leaf in tree.leaves()] == [2, 3, 4]
        assert [leaf.value[0] for leaf in tree.leaves()] == [1.0, 2.0, 3.0]

    def test_vector_leaves_round_trip(self, grid1d):
        tree = Tree.root_only(grid1d, np.array([0.25, -1.5]))
        back = Tree.decode(tree.encode(), grid1d)
        assert np.array_equal(back.values[0], tree.values[0])

    def test_bad_encoding_rejected(self, grid1d):
        with pytest.raises(ValueError):
            Tree.decode("X 1 2", grid1d)

    @pytest.mark.parametrize("text", ["", "I 0 0.5 L 1 2", "L 2 1", "I 0"])
    def test_truncated_encoding_rejected(self, grid1d, text):
        with pytest.raises(ValueError, match="truncated"):
            Tree.decode(text, grid1d)

    @pytest.mark.parametrize(
        "text", ["I -1 0.5 I 0 0.3 L 1 1 L 1 2", "I -1 0.5 L 1 1 L 1 2"]
    )
    def test_negative_rule_variable_rejected(self, text):
        with pytest.raises(ValueError, match="negative rule variable near token 1: -1"):
            Tree.decode(text)

    @pytest.mark.parametrize(
        "text, error",
        [
            ("L -2 1 2", "near token 1: -2"),
            ("I 0 0.5 L -2 L 1 1 L 1 2", "near token 4: -2"),
            ("L -3 L 1 2 1", "near token 1: -3"),
            ("L 0", "near token 1: 0"),
        ],
    )
    def test_leaf_length_below_one_rejected(self, text, error):
        with pytest.raises(ValueError, match=f"leaf length below 1 {error}$"):
            Tree.decode(text)
        with pytest.raises(ValueError, match=f"leaf length below 1 {error}$"):
            Tree.decode(text, k=1)

    def test_internal_nodes_hold_no_vector(self, grid1d):
        tree = build_depth2_tree(grid1d)
        assert [v is None for v in tree.values] == [True, True, False, False, False]
        tree._split(4, 0, 0.75)
        assert tree.values[4] is None
        assert [leaf.value[0] for leaf in tree.leaves()] == [1.0, 2.0, 3.0, 3.0]


class TestCutpointGrid:
    def test_interior_points_exclude_range_ends(self):
        X = np.linspace(0.0, 1.0, 11)[:, None]
        grid = CutpointGrid.from_data(X, 9)
        assert grid.cuts[0].min() > 0.0
        assert grid.cuts[0].max() < 1.0
        assert grid.cuts[0].size == 9

    def test_multidimensional(self):
        X = np.random.default_rng(0).uniform(size=(30, 3))
        grid = CutpointGrid.from_data(X, 10)
        assert grid.dim == 3


def subtree_end(tree, i):
    """One past the last node of the subtree at i, by counting the nodes
    still owed: a rule owes one more, a leaf one fewer."""
    owed = 1
    while owed:
        owed += 1 if tree.var[i] >= 0 else -1
        i += 1
    return i


def route_from_scratch(tree, X):
    """Leaf of every row by the recursive mask-and-split routing."""
    leaf_of = np.full(X.shape[0], -1)

    def rec(i, idx):
        if tree.var[i] < 0:
            leaf_of[idx] = i
        else:
            mask = X[idx, tree.var[i]] < tree.cut[i]
            rec(i + 1, idx[mask])
            rec(subtree_end(tree, i + 1), idx[~mask])

    rec(0, np.arange(X.shape[0]))
    return leaf_of


def filtered_cuts(tree):
    """Per node and dimension, the cuts strictly inside the ancestor bounds."""
    out = {}
    d = tree.grid.dim

    def rec(i, lo, hi):
        out[i] = [c[(c > lo[v]) & (c < hi[v])] for v, c in enumerate(tree.grid.cuts)]
        if tree.var[i] >= 0:
            v, cut = tree.var[i], tree.cut[i]
            hi_l = hi.copy()
            hi_l[v] = min(hi_l[v], cut)
            rec(i + 1, lo.copy(), hi_l)
            lo_r = lo.copy()
            lo_r[v] = max(lo_r[v], cut)
            rec(subtree_end(tree, i + 1), lo_r, hi.copy())

    rec(0, np.full(d, -np.inf), np.full(d, np.inf))
    return out


class TestCachedRowsAndSpans:
    """Moves update the cached rows and cut spans in place; both must equal
    what a from-scratch recursive routing and cut filter give.  A relocation
    judges and scores its candidate on the spans; both must agree with the
    float intervals of ``node_bounds`` and a whole-tree ``log_tree_prior``."""

    @staticmethod
    def check(tree, X):
        rows = tree.node_rows(X)
        leaf_of = np.full(X.shape[0], -1)
        for leaf in tree.leaf_nodes():
            assert np.all(np.diff(rows[leaf]) > 0)
            leaf_of[rows[leaf]] = leaf
        np.testing.assert_array_equal(leaf_of, route_from_scratch(tree, X))
        expected = filtered_cuts(tree)
        for i, span in enumerate(tree.spans):
            for v, (lo, hi) in enumerate(span):
                got = tree.grid.cuts[v][lo:hi]
                np.testing.assert_array_equal(got, expected[i][v])

    @staticmethod
    def check_relocation(tree, X, min_leaf_n, prop, probe, node_data):
        """Replay the relocation's draws with ``probe`` and judge the
        candidate tree from scratch.  Its leaf sets must be the subtree's,
        and must score as all the leaves do; ``node_data(rows)`` is the
        :class:`NodeData` of those rows."""
        internals = tree.internal_nodes()
        if not internals:
            assert not prop.valid
            return
        node = internals[probe.integers(len(internals))]
        var, cut, _ = _draw_rule(tree, node, tree.usable_vars(node), probe)
        candidate = tree.copy()
        _, span_inside = candidate._move_rule(node, var, cut)
        fresh = Tree.decode(candidate.encode(), tree.grid)
        rows, bounds = fresh.partition(X), fresh.node_bounds()
        big_enough = all(rows[i].size >= min_leaf_n for i in fresh.leaf_nodes())
        inside = all(
            bounds[i][0][fresh.var[i]] < fresh.cut[i] < bounds[i][1][fresh.var[i]]
            for i in fresh.internal_nodes()
        )
        # The span verdict alone: a rule on its ancestor's cut also empties
        # a leaf, so the proposal's verdict cannot tell the two checks apart.
        assert span_inside == inside
        assert prop.valid == (big_enough and inside)
        if prop.valid:
            assert prop.tree.encode() == fresh.encode()
            delta = log_tree_prior(fresh) - log_tree_prior(tree)
            assert prop.log_prior_ratio == pytest.approx(delta, rel=0, abs=1e-12)
            # Only the subtree's leaves change rows, and they are the sets.
            old_rows, new_rows = tree.node_rows(X), prop.tree.node_rows(X)
            subtree = range(node, subtree_end(fresh, node))
            for leaf in fresh.leaf_nodes():
                if leaf not in subtree:
                    np.testing.assert_array_equal(new_rows[leaf], old_rows[leaf])
            leaves = [i for i in subtree if fresh.var[i] < 0]
            for sets, source in ((prop.old_leaf_sets, old_rows), (prop.new_leaf_sets, rows)):
                assert [s.tolist() for s in sets] == [source[i].tolist() for i in leaves]

            def log_ml(sets):
                lp, sigma2 = LeafPrior(mean=[0.3, -0.2], sd=0.7), 0.4
                return sum(
                    log_marginal_likelihood(node_data(idx), lp, sigma2) for idx in sets
                )

            every = log_ml(new_rows[i] for i in fresh.leaf_nodes()) - log_ml(
                old_rows[i] for i in tree.leaf_nodes()
            )
            scored = log_ml(prop.new_leaf_sets) - log_ml(prop.old_leaf_sets)
            assert scored == pytest.approx(every, rel=0, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 40),
        d=st.sampled_from([1, 2]),
        ties=st.booleans(),
        method=st.sampled_from(["uniform", "midpoints"]),
        n_cuts=st.integers(1, 12),
        min_leaf_n=st.integers(1, 3),
        steps=st.integers(1, 40),
    )
    def test_random_accepted_moves(
        self, seed, n, d, ties, method, n_cuts, min_leaf_n, steps
    ):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(n, d))
        if ties:
            X = np.round(4 * X) / 4
        grid = CutpointGrid.from_data(X, n_cuts, method)
        tree = Tree.root_only(grid, np.zeros(1))
        self.check(tree, X)
        # Residuals and a (n, 2) design for scoring leaves, from their own
        # stream so the moves draw what they did without them.
        other = np.random.default_rng(seed + 1)
        resid, design = other.normal(size=n), other.normal(size=(n, 2))

        def node_data(rows):
            return NodeData(residuals=resid[rows], design=design[rows])

        moves = ("birth", "birth", "death", "change")
        for _ in range(steps):
            move = moves[rng.integers(len(moves))]
            if move == "birth":
                prop = propose_birth(tree, X, min_leaf_n, rng)
            elif move == "death":
                prop = propose_death(tree, X, rng)
            else:
                probe = copy.deepcopy(rng)
                prop = propose_rule_change(tree, X, min_leaf_n, rng)
                self.check_relocation(tree, X, min_leaf_n, prop, probe, node_data)
            self.check(tree, X)
            if prop.valid:
                tree = prop.tree
                self.check(tree, X)


class TestStructureKey:
    """A tree caches its structure key, and every structure edit must clear
    it: the key of each proposed and each prior tree must equal the key of
    a tree decoded from its text, and so must its depths and spans."""

    @staticmethod
    def check(tree):
        assert tree.key == Tree.decode(tree.encode()).key
        # The edits' walks must leave the depths and spans of a fresh tree,
        # and the depths of a count by hand: each child one below its parent.
        fresh = Tree.decode(tree.encode(), tree.grid)
        assert (tree.depths, tree.spans) == (fresh.depths, fresh.spans)
        depths, pending = [], [0]
        for v in tree.var:
            depths.append(pending.pop())
            if v >= 0:
                pending += [depths[-1] + 1] * 2
        assert tree.depths == depths

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 40),
        d=st.sampled_from([1, 2]),
        n_cuts=st.integers(1, 12),
        steps=st.integers(1, 30),
    )
    def test_key_of_every_proposed_and_prior_tree(self, seed, n, d, n_cuts, steps):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(n, d))
        grid = CutpointGrid.from_data(X, n_cuts)
        tree = Tree.root_only(grid, np.zeros(1))
        for _ in range(steps):
            proposals = []
            for propose in (propose_birth, propose_death, propose_rule_change):
                tree.key  # cached on the parent, which each move copies
                if propose is propose_death:
                    proposals.append(propose(tree, X, rng))
                else:
                    proposals.append(propose(tree, X, 1, rng))
            valid = [p for p in proposals if p.valid]
            for prop in valid:
                self.check(prop.tree)
            if valid:
                tree = valid[rng.integers(len(valid))].tree
            self.check(sample_tree_from_prior(grid, rng))
