import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixtrees.trees import (
    CutpointGrid,
    Tree,
    TreePriorConfig,
    log_tree_prior,
    propose_birth,
    propose_death,
    propose_rule_change,
    sample_tree_from_prior,
    split_probability,
)


@pytest.fixture
def cfg():
    return TreePriorConfig(split_base=0.95, split_power=2.0, cutpoints_per_dim=100)


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
    def test_depth_zero_is_base(self, cfg):
        assert split_probability(0, cfg) == 0.95

    def test_depth_one_quarter(self, cfg):
        assert split_probability(1, cfg) == pytest.approx(0.95 / 4)

    def test_power_zero_is_constant(self):
        flat = TreePriorConfig(split_base=0.6, split_power=0.0)
        assert all(split_probability(d, flat) == 0.6 for d in range(6))


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

    def test_every_point_lands_in_exactly_one_leaf(self, grid1d, cfg):
        rng = np.random.default_rng(5)
        X = rng.uniform(-0.2, 1.2, size=(10_000, 1))
        for seed in range(5):
            tree = sample_tree_from_prior(grid1d, cfg, np.random.default_rng(seed))
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
    def test_root_only(self, grid1d, cfg):
        tree = Tree.root_only(grid1d, np.array([0.0]))
        assert log_tree_prior(tree, cfg) == pytest.approx(np.log(1 - 0.95))

    def test_single_split(self, grid1d, cfg):
        tree = Tree.decode(f"I 0 {grid1d.cuts[0][49]:.17g} L 1 0 L 1 0", grid1d)
        expect = (
            np.log(0.95)
            + 2 * np.log(1 - 0.95 / 4)
            + np.log(1.0 / (1 * 100))
        )
        assert log_tree_prior(tree, cfg) == pytest.approx(expect, rel=1e-12)

    def test_depth2_matches_enumeration_oracle(self, grid1d, cfg):
        # Independent accounting: explicitly multiply out the generative
        # process for the hand-built depth-2 tree.
        tree = build_depth2_tree(grid1d)
        cuts = grid1d.cuts[0]
        p0, p1, p2 = (split_probability(d, cfg) for d in (0, 1, 2))
        n_below_half = int(np.sum(cuts < 0.5))
        expect = (
            np.log(p0) + np.log(1.0 / cuts.size)       # root rule
            + np.log(p1) + np.log(1.0 / n_below_half)  # left child rule
            + 2 * np.log(1 - p2)                       # two deep leaves
            + np.log(1 - p1)                           # right leaf
        )
        assert log_tree_prior(tree, cfg) == pytest.approx(expect, rel=1e-12)

    def test_prior_equals_birth_path_probability(self, grid1d, cfg):
        # Growing the single-split tree from the root: log prior difference
        # equals the birth move's prior ratio bookkeeping.
        rng = np.random.default_rng(11)
        X = np.linspace(0.0, 1.0, 50)[:, None]
        base = Tree.root_only(grid1d, np.array([0.0]))
        prop = propose_birth(base, X, cfg, rng)
        assert prop.valid
        delta = log_tree_prior(prop.tree, cfg) - log_tree_prior(base, cfg)
        assert prop.log_prior_ratio == pytest.approx(delta, rel=1e-12)


class TestProposals:
    def test_birth_forward_probability_uniform_choices(self, cfg):
        # Root-only tree, one dimension, 100 cutpoints: 1 / (1 * 1 * 100).
        X = np.linspace(0.0, 1.0, 50)[:, None]
        grid = CutpointGrid.from_data(X, 100)
        tree = Tree.root_only(grid, np.array([0.0]))
        prop = propose_birth(tree, X, cfg, np.random.default_rng(0))
        assert prop.valid
        assert prop.log_forward == pytest.approx(np.log(1.0 / 100))

    def test_birth_never_creates_empty_child(self, cfg):
        X = np.linspace(0.0, 1.0, 10)[:, None]
        grid = CutpointGrid.from_data(X, 100)
        rng = np.random.default_rng(3)
        for _ in range(200):
            tree = Tree.root_only(grid, np.array([0.0]))
            prop = propose_birth(tree, X, cfg, rng)
            if prop.valid:
                for idx in prop.new_leaf_sets:
                    assert idx.size >= cfg.min_leaf_n

    def test_birth_respects_min_leaf_n(self):
        cfg = TreePriorConfig(min_leaf_n=6)
        X = np.linspace(0.0, 1.0, 10)[:, None]
        grid = CutpointGrid.from_data(X, 100)
        rng = np.random.default_rng(3)
        # 10 points cannot split into two groups of >= 6: always invalid.
        for _ in range(50):
            prop = propose_birth(Tree.root_only(grid, np.array([0.0])), X, cfg, rng)
            assert not prop.valid

    def test_death_on_root_only_invalid(self, grid1d, cfg):
        X = np.linspace(0.0, 1.0, 50)[:, None]
        tree = Tree.root_only(grid1d, np.array([0.0]))
        prop = propose_death(tree, X, cfg, np.random.default_rng(0))
        assert not prop.valid

    def test_death_collapses_single_split_to_root(self, grid1d, cfg):
        X = np.linspace(0.0, 1.0, 50)[:, None]
        tree = Tree.root_only(grid1d, np.array([0.0]))
        prop = propose_birth(tree, X, cfg, np.random.default_rng(1))
        dead = propose_death(prop.tree, X, cfg, np.random.default_rng(2))
        assert dead.valid
        assert dead.tree.n_leaves() == 1

    def test_birth_death_probabilities_are_symmetric(self, grid1d, cfg):
        # On the pair (1-leaf tree) <-> (2-leaf tree), the death reverse
        # probability must equal the matching birth forward probability and
        # the prior ratios must cancel.
        X = np.linspace(0.0, 1.0, 50)[:, None]
        rng = np.random.default_rng(7)
        base = Tree.root_only(grid1d, np.array([0.0]))
        birth = propose_birth(base, X, cfg, rng)
        assert birth.valid
        death = propose_death(birth.tree, X, cfg, rng)
        assert death.valid
        assert death.log_reverse == pytest.approx(birth.log_forward, rel=1e-12)
        assert death.log_forward == pytest.approx(birth.log_reverse, rel=1e-12)
        assert death.log_prior_ratio == pytest.approx(-birth.log_prior_ratio, rel=1e-12)

    def test_death_after_birth_restores_structure(self, grid1d, cfg):
        X = np.linspace(0.0, 1.0, 50)[:, None]
        rng = np.random.default_rng(9)
        base = Tree.root_only(grid1d, np.array([4.2]))
        birth = propose_birth(base, X, cfg, rng)
        death = propose_death(birth.tree, X, cfg, rng)
        assert death.tree.n_leaves() == 1
        # membership restored
        assert np.array_equal(death.new_leaf_sets[0], np.arange(50))


class TestPriorSampling:
    def test_prior_trees_stay_shallow(self, grid1d, cfg):
        rng = np.random.default_rng(2024)
        n_samples = 100_000
        leaves = np.empty(n_samples)
        depths = np.empty(n_samples)
        for i in range(n_samples):
            t = sample_tree_from_prior(grid1d, cfg, rng)
            leaves[i] = t.n_leaves()
            depths[i] = t.depth()
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


def route_from_scratch(tree, X):
    """Leaf of every row by the recursive mask-and-split routing."""
    leaf_of = np.full(X.shape[0], -1)

    def rec(i, idx):
        if tree.left[i] < 0:
            leaf_of[idx] = i
        else:
            mask = X[idx, tree.var[i]] < tree.cut[i]
            rec(tree.left[i], idx[mask])
            rec(tree.right[i], idx[~mask])

    rec(0, np.arange(X.shape[0]))
    return leaf_of


def filtered_cuts(tree):
    """Per node and dimension, the cuts strictly inside the ancestor bounds."""
    out = {}
    d = tree.grid.dim

    def rec(i, lo, hi):
        out[i] = [c[(c > lo[v]) & (c < hi[v])] for v, c in enumerate(tree.grid.cuts)]
        if tree.left[i] >= 0:
            v, cut = tree.var[i], tree.cut[i]
            hi_l = hi.copy()
            hi_l[v] = min(hi_l[v], cut)
            rec(tree.left[i], lo.copy(), hi_l)
            lo_r = lo.copy()
            lo_r[v] = max(lo_r[v], cut)
            rec(tree.right[i], lo_r, hi.copy())

    rec(0, np.full(d, -np.inf), np.full(d, np.inf))
    return out


class TestCachedRowsAndSpans:
    """Moves update the cached rows and cut spans in place; both must equal
    what a from-scratch recursive routing and cut filter give."""

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
        cfg = TreePriorConfig(min_leaf_n=min_leaf_n)
        tree = Tree.root_only(grid, np.zeros(1))
        self.check(tree, X)
        moves = (propose_birth, propose_birth, propose_death, propose_rule_change)
        for _ in range(steps):
            prop = moves[rng.integers(len(moves))](tree, X, cfg, rng)
            self.check(tree, X)
            if prop.valid:
                tree = prop.tree
                self.check(tree, X)
