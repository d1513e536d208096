"""Backfitting MCMC for mixing simulator predictions with tree weights.

The observation model is y_i ~ N(fhat(x_i)' w(x_i), sigma2) where fhat
holds the K simulator means and the weight functions w are a sum of m
trees with K-vector leaves.  One sweep updates each tree against the
residuals of the others (a Metropolis-Hastings structure move using the
integrated leaf likelihood, then a conjugate redraw of all its leaves) and
finally draws sigma2 from its scaled inverse-chi-squared conditional.
"""

from __future__ import annotations

import math
import os
import weakref
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .calibration import (
    informative_leaf_mean,
    informative_tau,
    noninformative_leaf_prior,
    pilot_sigma2,
    calibrate_sigma2_prior,
    precision_weights,
)
from .node_model import (
    LeafPrior,
    NoisePrior,
    _factor,
    _gram,
    _log_ml_raw,
    _sample_leaf_raw,
    sample_sigma2,
)
from .trees import (
    CutpointGrid,
    Tree,
    propose_birth,
    propose_death,
    propose_rule_change,
)

BIRTH_PROB = 0.5  # chance that a structure move proposes a birth, not a death
# log P(reverse kind) - log P(kind), for a birth and for a death
LOG_KIND_BIRTH = float(np.log1p(-BIRTH_PROB) - np.log(BIRTH_PROB))
LOG_KIND_DEATH = float(np.log(BIRTH_PROB) - np.log1p(-BIRTH_PROB))
META_KEYS = ("m", "k", "informative", "nu", "n_burn", "n_keep", "thin", "seed")


@dataclass
class PredictionSet:
    """Per-model predictions at the training points.

    ``means`` is (n, K); ``variances`` is only needed for the informative
    leaf prior.
    """

    means: np.ndarray
    variances: Optional[np.ndarray] = None

    def __post_init__(self):
        self.means = np.atleast_2d(np.asarray(self.means, dtype=float))
        if self.variances is not None:
            self.variances = np.atleast_2d(np.asarray(self.variances, dtype=float))
            if self.variances.shape != self.means.shape:
                raise ValueError("variances must match means shape")
        if not np.isfinite(self.means).all():
            raise ValueError("non-finite predictions")


@dataclass
class SamplerConfig:
    """Chain settings; ``lam=None`` calibrates the variance prior from data."""

    m: int = 10
    k: float = 5.0
    informative: bool = False
    nu: float = 10.0
    lam: Optional[float] = None
    lam_match: str = "mode"
    n_burn: int = 2000
    n_keep: int = 5000
    thin: int = 1
    seed: int = 0
    cutpoints_per_dim: int = 100
    cutpoint_method: str = "uniform"
    min_leaf_n: int = 1

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("need at least one tree")
        if self.min_leaf_n < 1:
            raise ValueError("min_leaf_n must be at least 1")
        if self.n_keep < 1 or self.thin < 1 or self.n_burn < 0:
            raise ValueError("bad iteration counts")
        if not (0 < self.k < np.inf and 0 < self.nu < np.inf):
            raise ValueError("k and nu must be positive and finite")
        if self.lam is not None and not 0 < self.lam < np.inf:
            raise ValueError("lambda must be positive and finite")
        if self.lam_match not in ("mode", "mean"):
            raise ValueError(f"lambda_match must be 'mode' or 'mean', got {self.lam_match!r}")
        if self.lam is None and self.lam_match == "mean" and self.nu <= 2:
            raise ValueError("lambda_match = mean needs nu > 2")
        if self.cutpoints_per_dim < 1:
            raise ValueError("need at least one cutpoint per dimension")
        if self.cutpoint_method not in ("uniform", "midpoints"):
            raise ValueError(f"unknown cutpoint method {self.cutpoint_method!r}")

    def noise_prior(self, means, y) -> NoisePrior:
        """The sigma2 prior; with ``lam=None`` its scale is calibrated from
        the models' training predictions ``means`` and the outputs ``y``."""
        lam = self.lam
        if lam is None:
            lam = calibrate_sigma2_prior(means, y, self.nu, self.lam_match)
        return NoisePrior(shape=self.nu, scale=lam)


class Chain:
    """One MCMC chain; use :func:`fit_bmm` unless driving sweeps by hand.

    ``_live[j]`` maps each leaf of tree j (its row bytes) to its stats: the
    contiguous (K, n_p) design ``F[rows].T``, its Gram rows, and its prior
    mean (K Python floats) and sd.  ``_factors`` maps each row set that the
    current tree update scored or redrew to its residual slice, stats and
    posterior factor.  It belongs to one residual vector, ``_resid``: tree
    j's residuals and sigma2 stay fixed while tree j is updated, and
    :meth:`tree_residuals` returns a new vector for each update, so a new
    vector drops the factors of the last.
    """

    def __init__(self, X, y, ps: PredictionSet, cfg: SamplerConfig, rng=None):
        self.X = np.atleast_2d(np.asarray(X, dtype=float))
        self.y = np.asarray(y, dtype=float).ravel()
        if self.X.shape[0] != self.y.size:
            raise ValueError("inputs and outputs must align")
        if ps.means.shape[0] != self.y.size:
            raise ValueError("prediction rows must align with the dataset")
        self.cfg = cfg
        self.rng = rng if rng is not None else np.random.default_rng(cfg.seed)
        self.F = ps.means
        self.FT = np.ascontiguousarray(self.F.T)
        self.n, self.n_models = self.F.shape

        self.grid = CutpointGrid.from_data(
            self.X, cfg.cutpoints_per_dim, cfg.cutpoint_method
        )

        if cfg.informative:
            if ps.variances is None:
                raise ValueError("informative prior requires prediction variances")
            self.point_weights = precision_weights(ps.variances)
            self.tau = informative_tau(cfg.m, cfg.k)
            root_mean = informative_leaf_mean(
                np.arange(self.n), self.point_weights, cfg.m
            )
        else:
            self.point_weights = None
            base = noninformative_leaf_prior(cfg.m, cfg.k, self.n_models)
            self.base_prior = base
            self.tau = base.sd
            root_mean = base.mean

        self.noise = cfg.noise_prior(self.F, self.y)

        self.sigma2 = max(pilot_sigma2(self.F, self.y), 1e-12)

        self.trees = [Tree.root_only(self.grid, root_mean) for _ in range(cfg.m)]
        self.fits = np.stack(
            [np.einsum("nk,nk->n", self.F, t.evaluate(self.X)) for t in self.trees]
        )
        self._live = [{} for _ in self.trees]
        self._resid, self._factors = None, {}
        self.n_proposals = 0
        self.n_accepted = 0

    # ---- pieces of a sweep -------------------------------------------------

    def leaf_prior_for(self, member_idx) -> LeafPrior:
        if self.point_weights is None:
            return self.base_prior
        return LeafPrior(
            mean=informative_leaf_mean(member_idx, self.point_weights, self.cfg.m),
            sd=self.tau,
        )

    def tree_residuals(self, j: int) -> np.ndarray:
        """y minus the fitted contribution of every tree except tree j."""
        return self.y - (self.fits.sum(axis=0) - self.fits[j])

    def _leaf(self, j, idx, resid):
        """Key of tree j's leaf with rows idx, and its residual slice, stats
        and factor."""
        if resid is not self._resid:
            self._resid, self._factors = resid, {}
        key = idx.tobytes()
        cached = self._factors.get(key)
        if cached is None:
            stats = self._live[j].get(key)
            if stats is None:
                design = self.FT.take(idx, axis=1)
                lp = self.leaf_prior_for(idx)
                stats = design, _gram(design), lp.mean.tolist(), lp.sd
            r = resid[idx]
            cached = self._factors[key] = r, stats, _factor(r, *stats, self.sigma2)
        return key, cached

    def _leaf_sets_log_ml(self, j, sets, resid) -> float:
        total = 0.0
        for idx in sets:
            _, (r, (design, _, mean, sd), factor) = self._leaf(j, idx, resid)
            total += _log_ml_raw(r, design, mean, sd, self.sigma2, factor)
        return total

    def mh_tree_update(self, j: int, resid, structure: bool = True) -> bool:
        """Propose birth or death on tree j and accept via the integrated
        likelihood of its residuals ``resid`` (:meth:`tree_residuals`); then
        redraw all its leaves.  Returns the accept flag."""
        accepted = structure and self._birth_or_death(j, resid)
        self._redraw_leaves(j, resid)
        return accepted

    def _birth_or_death(self, j: int, resid) -> bool:
        """Propose birth or death on tree j and run its Metropolis-Hastings
        test against ``resid``, without a redraw; returns the accept flag."""
        self.n_proposals += 1
        tree, rng = self.trees[j], self.rng
        if rng.random() < BIRTH_PROB:
            prop = propose_birth(tree, self.X, self.cfg.min_leaf_n, rng)
            log_kind = LOG_KIND_BIRTH
        else:
            prop = propose_death(tree, self.X, rng)
            log_kind = LOG_KIND_DEATH
        return self._try_accept(j, prop, resid, log_kind)

    def mh_rule_change(self, j: int, resid) -> bool:
        """Relocate one rule of tree j (warmup move) against its residuals
        ``resid``; leaves are redrawn.  Returns the accept flag."""
        self.n_proposals += 1
        prop = propose_rule_change(self.trees[j], self.X, self.cfg.min_leaf_n, self.rng)
        accepted = self._try_accept(j, prop, resid, 0.0)
        self._redraw_leaves(j, resid)
        return accepted

    def _try_accept(self, j, prop, resid, log_kind) -> bool:
        if not prop.valid:
            return False
        log_ratio = (
            self._leaf_sets_log_ml(j, prop.new_leaf_sets, resid)
            - self._leaf_sets_log_ml(j, prop.old_leaf_sets, resid)
            + prop.log_prior_ratio
            + log_kind
            + prop.log_reverse
            - prop.log_forward
        )
        u = self.rng.random()
        if (math.log(u) if u > 0.0 else -math.inf) < log_ratio:
            self.trees[j] = prop.tree
            self.n_accepted += 1
            return True
        return False

    def _redraw_leaves(self, j: int, resid: np.ndarray) -> None:
        tree, fit_j = self.trees[j], self.fits[j]
        rows = tree.node_rows(self.X)
        leaves = tree.leaf_nodes()
        # The same values as one standard_normal(K) per leaf, in leaf order.
        normals = self.rng.standard_normal((len(leaves), self.n_models)).tolist()
        live = {}
        for leaf, z in zip(leaves, normals):
            idx = rows[leaf]
            key, (r, stats, factor) = self._leaf(j, idx, resid)
            live[key] = stats
            design, _, mean, sd = stats
            value = _sample_leaf_raw(r, design, mean, sd, self.sigma2, z, factor)
            tree.values[leaf] = value  # a new vector: split children share one
            fit_j[idx] = value @ design
        self._live[j] = live  # only the surviving leaves: changed rows drop out

    @property
    def total_sse(self) -> float:
        err = self.y - self.fits.sum(axis=0)
        return float(err @ err)

    def gibbs_sweep(
        self, structure: bool = True, warmup: bool = False, hold_sigma2: bool = False
    ) -> None:
        """One backfitting pass over all trees, then the sigma2 draw.

        The very first sweep of a run should pass ``structure=False`` so the
        leaf redraws absorb the prior-mean initialization misfit before any
        structure is proposed; otherwise the inflated early residuals accept
        arbitrary splits that the chain then struggles to undo.  During
        warmup, ``hold_sigma2`` keeps the error variance at its pilot value
        so the residual signal is not absorbed into noise before any
        structure exists.  The rule-relocation step exists because birth
        and death alone cannot move a load-bearing cut: without it the
        chain freezes in whatever split locations it grew first and cannot
        recover from noise-variance excursions.  Kept draws come from
        birth/death alone, so relocation runs only during warmup.  Tests
        freeze the kernel with the same flags: ``structure=False`` keeps
        every tree's structure, and ``hold_sigma2`` keeps a ``sigma2`` set
        on the chain.
        """
        for j in range(self.cfg.m):
            # The other trees and sigma2 stay fixed through both moves on
            # tree j, so they share its residuals and so its factor cache.
            resid = self.tree_residuals(j)
            if warmup and structure:
                self._birth_or_death(j, resid)
                # A leaf redraw here would be overwritten unread: the
                # relocation integrates the leaves out, and the redraw after
                # it rewrites every leaf and every row of fits[j].  Its
                # normals are still drawn, so the generator stands where
                # that redraw would leave it and the draws keep their bytes.
                n_leaves = len(self.trees[j].leaf_nodes())
                self.rng.standard_normal((n_leaves, self.n_models))
                self.mh_rule_change(j, resid)
            else:
                self.mh_tree_update(j, resid, structure=structure)
        if not hold_sigma2:
            self.sigma2 = sample_sigma2(self.total_sse, self.n, self.noise, self.rng)


def _structure_key(tree: Tree) -> tuple:
    """What routes rows: ``var`` and the cuts of the internal nodes."""
    return tuple(tree.var), tuple(c for v, c in zip(tree.var, tree.cut) if v >= 0)


def _extend(buf: np.ndarray, n: int, rows) -> np.ndarray:
    """``buf`` with ``rows`` written after its first n rows; when they do
    not fit, a new buffer of at least twice the capacity."""
    rows = np.asarray(rows)
    stop = n + len(rows)
    if stop > len(buf):
        new = np.empty((max(stop, 2 * len(buf)),) + rows.shape[1:], rows.dtype)
        if n:
            new[:n] = buf[:n]
        buf = new
    buf[n:stop] = rows
    return buf


class PosteriorDraws:
    """Kept MCMC output: sigma2 and the m trees of each kept draw, with each
    distinct tree structure held once.

    A structure (:func:`_structure_key`) is interned as a skeleton
    :class:`Tree` without leaf values, with its leaf nodes in pre-order.
    Kept draw s holds ``sigma2_trace[s]``, one row of m structure ids
    (``ids[s]``) and m offsets (``offsets[s]``): the leaf vectors of its
    tree j are the rows ``offsets[s, j]`` onwards of the (total leaves, K)
    array ``values``, in pre-order.  :meth:`append` copies the leaf vectors,
    so the chain's later moves leave the kept draws alone.
    """

    def __init__(self):
        self.skeletons: list[Tree] = []
        self.leaf_nodes: list[list[int]] = []
        self._index = {}
        # Per position, a weak reference to the tree of the last append and
        # its structure id; a pickled copy forgets them.
        self._held: list[weakref.ref] = []
        self._held_ids: list[int] = []
        self.n_kept = self.n_leaves = 0
        self._sigma2 = np.empty(0)
        self._ids = np.empty((0, 0), dtype=np.intp)
        self._offsets = np.empty((0, 0), dtype=np.intp)
        self._values = np.empty((0, 0))
        self.n_proposals = self.n_accepted = 0
        self.meta: dict = {}

    @property
    def sigma2_trace(self) -> np.ndarray:
        return self._sigma2[: self.n_kept]

    @property
    def ids(self) -> np.ndarray:
        return self._ids[: self.n_kept]

    @property
    def offsets(self) -> np.ndarray:
        return self._offsets[: self.n_kept]

    @property
    def values(self) -> np.ndarray:
        return self._values[: self.n_leaves]

    @property
    def acceptance_rate(self) -> float:
        return self.n_accepted / self.n_proposals if self.n_proposals else 0.0

    def _intern(self, tree: Tree) -> int:
        key = _structure_key(tree)
        sid = self._index.get(key)
        if sid is None:
            sid = self._index[key] = len(self.skeletons)
            lists = [list(tree.var), list(tree.cut), list(tree.right), list(tree.depths)]
            self.skeletons.append(Tree(None, *lists, [None] * len(tree.var)))
            self.leaf_nodes.append(tree.leaf_nodes())
        return sid

    def _add(self, sigma2, ids, offsets, values) -> None:
        self._sigma2 = _extend(self._sigma2, self.n_kept, sigma2)
        self._ids = _extend(self._ids, self.n_kept, ids)
        self._offsets = _extend(self._offsets, self.n_kept, offsets)
        self._values = _extend(self._values, self.n_leaves, values)
        self.n_kept += len(ids)
        self.n_leaves += len(values)

    def append(self, sigma2: float, trees: list[Tree]) -> None:
        """Keep one draw: ``sigma2`` and the structures and current leaf
        vectors of ``trees``.

        A tree object that held the same position at the last append keeps
        that append's structure id, so a tree's structure must not change
        in place between appends; the chain replaces a tree object on every
        accepted move and changes only leaf values in place.  Raises
        ValueError for a draw without trees, or with another number of
        trees than the draws already kept, and for leaf vectors that differ
        in length from each other or from those of the draws already kept.
        """
        if not trees:
            raise ValueError("a draw without trees")
        if self.n_kept and len(trees) != self._ids.shape[1]:
            raise ValueError(f"a draw of {len(trees)} trees, expected {self._ids.shape[1]}")
        if len(self._held) == len(trees):
            ids = [
                sid if ref() is tree else self._intern(tree)
                for tree, ref, sid in zip(trees, self._held, self._held_ids)
            ]
        else:
            ids = [self._intern(tree) for tree in trees]
        offsets, values = [], []
        for tree, sid in zip(trees, ids):
            offsets.append(self.n_leaves + len(values))
            values += [tree.values[i] for i in self.leaf_nodes[sid]]
        try:
            values = np.array(values, dtype=float)
            same = not self.n_leaves or values.shape[1:] == self._values.shape[1:]
        except ValueError:  # ragged leaf vectors
            same = False
        if not same:
            raise ValueError("leaf vectors of different lengths")
        self._add([sigma2], [ids], [offsets], values)
        self._held, self._held_ids = list(map(weakref.ref, trees)), ids

    def __getstate__(self):
        return dict(self.__dict__, _held=[], _held_ids=[])

    @classmethod
    def concat(cls, parts: list["PosteriorDraws"]) -> "PosteriorDraws":
        """The draws of ``parts`` in order, with their structures re-interned
        and their proposal counts summed; ``meta`` is the first part's plus
        ``chains``."""
        out = cls()
        for part in parts:
            new_ids = np.array([out._intern(t) for t in part.skeletons], dtype=np.intp)
            out._add(
                part.sigma2_trace, new_ids[part.ids],
                part.offsets + out.n_leaves, part.values,
            )
        out.n_proposals = sum(p.n_proposals for p in parts)
        out.n_accepted = sum(p.n_accepted for p in parts)
        out.meta = dict(parts[0].meta, chains=len(parts))
        return out

    def encoded(self, s: int) -> list[str]:
        """The text of each tree of draw s, as :meth:`Tree.encode` writes it."""
        return [
            self.skeletons[sid].encode(self.values[off : off + len(self.leaf_nodes[sid])])
            for sid, off in zip(self.ids[s], self.offsets[s])
        ]

    def weights(self, X) -> np.ndarray:
        """(n_kept, len(X), K) weight vectors: per draw, the leaf vectors its
        trees reach, summed in tree order.

        Each structure routes X once.  The sums run one draw at a time so
        that no index array larger than X is built.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        slots = []  # per structure: the leaf position each row reaches
        for tree, leaves in zip(self.skeletons, self.leaf_nodes):
            position = np.empty(len(tree.var), dtype=np.intp)
            position[leaves] = np.arange(len(leaves))
            slots.append(position.take(tree.leaf_index(X)))
        values = self.values
        out = np.empty((self.n_kept, len(X), values.shape[1]))
        for w, ids, offsets in zip(out, self.ids.tolist(), self.offsets.tolist()):
            values[offsets[0] :].take(slots[ids[0]], axis=0, out=w)
            for sid, off in zip(ids[1:], offsets[1:]):
                w += values[off:].take(slots[sid], axis=0)
        return out


def fit_bmm(
    dataset,
    ps: PredictionSet,
    cfg: SamplerConfig,
    callback: Optional[Callable] = None,
) -> PosteriorDraws:
    """Run the backfitting sampler and record posterior draws.

    Trees start as roots at the prior mean and sigma2 at the pilot error
    variance, which is held for the first half of the ``n_burn`` warmup
    sweeps.  After warmup, every ``thin``-th of ``n_keep * thin`` further
    sweeps is kept.  ``callback(sweep, chain)``, when given, is invoked
    after every sweep.
    """
    chain = Chain(dataset.inputs, dataset.outputs, ps, cfg)
    draws = PosteriorDraws()

    total = cfg.n_burn + cfg.n_keep * cfg.thin
    for sweep in range(total):
        chain.gibbs_sweep(
            structure=sweep > 0,
            warmup=sweep < cfg.n_burn,
            hold_sigma2=sweep < cfg.n_burn // 2,
        )
        if callback is not None:
            callback(sweep, chain)
        if sweep >= cfg.n_burn and (sweep - cfg.n_burn) % cfg.thin == 0:
            draws.append(chain.sigma2, chain.trees)

    draws.n_proposals, draws.n_accepted = chain.n_proposals, chain.n_accepted
    draws.meta = {key: getattr(cfg, key) for key in META_KEYS}
    draws.meta.update(lam=chain.noise.scale, n_train=chain.n, n_models=chain.n_models)
    return draws


def fit_chains(
    dataset, ps: PredictionSet, cfg: SamplerConfig, chains: int
) -> PosteriorDraws:
    """Pool the kept draws of ``chains`` :func:`fit_bmm` runs, chain c at seed
    ``cfg.seed + c``, in chain order by :meth:`PosteriorDraws.concat` (which
    sets ``meta["chains"]``); one chain's draws come back unchanged.

    With more than one chain and more than one CPU, the chains are dealt
    round-robin over the calling process and ``W = min(chains, cpu count) - 1``
    forked worker processes, which inherit the imported modules and the
    built problem: the caller runs chains 0, W + 1, 2(W + 1), ... and worker
    w runs chains w, w + W + 1, ...  The draws do not depend on the worker
    count.  A worker's exception reaches the caller with its own type, and
    every worker has exited when this returns or raises.
    """
    if chains < 1:
        raise ValueError(f"need at least one chain, got {chains}")
    configs = [replace(cfg, seed=cfg.seed + c) for c in range(chains)]
    procs = min(chains, os.cpu_count() or 1)
    if procs == 1:
        dealt = [_fit_each(dataset, ps, configs)]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork, not spawn: a forked worker inherits numpy and the built
        # problem, where a spawned one would import numpy again and unpickle
        # the problem.  Chain 0 stays here, so in-process instrumentation of
        # the sampler sees whole chains.
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(procs - 1, mp_context=context) as pool:
            futures = [
                pool.submit(_fit_each, dataset, ps, configs[w::procs])
                for w in range(1, procs)
            ]
            dealt = [_fit_each(dataset, ps, configs[::procs])]
            dealt += [f.result() for f in futures]
    # Process p ran chains p, p + procs, ..., in that order.
    parts = [dealt[c % procs][c // procs] for c in range(chains)]
    return parts[0] if chains == 1 else PosteriorDraws.concat(parts)


def _fit_each(dataset, ps: PredictionSet, configs) -> list[PosteriorDraws]:
    """:func:`fit_bmm` at each config in turn."""
    return [fit_bmm(dataset, ps, c) for c in configs]


@dataclass
class MixedSummary:
    """Pointwise posterior summaries of the mixed mean and the weights."""

    grid: np.ndarray
    mean: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    weight_mean: np.ndarray
    weight_lo: np.ndarray
    weight_hi: np.ndarray
    wsum_mean: np.ndarray
    wsum_lo: np.ndarray
    wsum_hi: np.ndarray


def predict_mixed(draws: PosteriorDraws, grid, grid_means) -> MixedSummary:
    """Posterior mean and central 95% band of the mixed prediction, each
    weight function, and the sum of weights, at the rows of ``grid``, where
    the models predict ``grid_means``.

    ``grid_means`` must be (len(grid), K), K the length of the draws' leaf
    vectors, and finite, or ValueError is raised.
    """
    if draws.n_kept < 1:
        raise ValueError("no kept draws")
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.ndim == 1:
        grid = grid[:, None]
    grid_means = np.atleast_2d(np.asarray(grid_means, dtype=float))
    k = draws.values.shape[1]
    if grid_means.shape[1] != k:
        raise ValueError(
            f"leaf vectors of {k} values, expected {grid_means.shape[1]}, "
            "the columns of grid_means"
        )
    if grid_means.shape[0] != len(grid):
        raise ValueError(f"grid_means has {grid_means.shape[0]} rows, grid {len(grid)}")
    if not np.isfinite(grid_means).all():
        raise ValueError("non-finite grid_means")
    weights = draws.weights(grid)
    # Each trace is freed once summarised, and the band of one weight
    # column at a time sorts a copy of that column only.
    q = [0.025, 0.975]
    weight_band = np.empty((len(q),) + weights.shape[1:])
    for k in range(weights.shape[2]):
        weight_band[:, :, k] = np.quantile(weights[:, :, k], q, axis=0)
    mixed = np.einsum("gk,sgk->sg", grid_means, weights)
    mixed_stats = mixed.mean(axis=0), *np.quantile(mixed, q, axis=0)
    del mixed
    weight_mean = weights.mean(axis=0)
    # Column by column, in place: for K < 8 the bits of weights.sum(axis=2),
    # whose reduction over the short, strided last axis is the slower.
    wsum = weights[:, :, 0].copy()
    for k in range(1, weights.shape[2]):
        wsum += weights[:, :, k]
    del weights
    return MixedSummary(
        grid,
        *mixed_stats,
        weight_mean, *weight_band,
        wsum.mean(axis=0), *np.quantile(wsum, q, axis=0),
    )


def save_draws(draws: PosteriorDraws, path) -> None:
    """Write the raw draw archive (sigma2 plus encoded trees per draw)."""
    with open(path, "w") as fh:
        for key, val in sorted(draws.meta.items()):
            fh.write(f"# {key} = {val}\n")
        for i in range(draws.n_kept):
            fh.write(f"draw {i} sigma2 {draws.sigma2_trace[i]:.17g}\n")
            for text in draws.encoded(i):
                fh.write(f"tree {text}\n")


def load_draws(path) -> list[tuple[float, list[Tree]]]:
    """Read a draw archive back as (sigma2, trees) pairs for re-prediction.

    A line that is not a comment, a ``draw i sigma2 s`` line with a finite,
    positive s, or a ``tree`` line after a draw line raises ValueError, and
    so does a leaf whose length is not the ``# n_models = K`` header's K.
    """
    out, n_models = [], None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                if key.strip() == "n_models":
                    n_models = _archive_n_models(line, value)
            elif line.startswith("draw "):
                out.append((_archive_sigma2(line), []))
            elif line.startswith("tree ") and out:
                try:
                    out[-1][1].append(Tree.decode(line[5:], k=n_models))
                except ValueError as exc:
                    raise ValueError(f"bad archive line: {line!r} ({exc})") from None
            else:
                raise ValueError(f"bad archive line: {line!r}")
    return out


def _archive_n_models(line: str, value: str) -> int:
    """The K of a ``# n_models = K`` archive line."""
    try:
        k = int(value)
    except ValueError:
        k = 0
    if k < 1:
        raise ValueError(f"bad archive line: {line!r}")
    return k


def _archive_sigma2(line: str) -> float:
    """The sigma2 of a ``draw i sigma2 s`` archive line."""
    fields = line.split()
    try:
        sigma2 = float(fields[3])
    except (IndexError, ValueError):
        sigma2 = math.nan
    if len(fields) != 4 or fields[2] != "sigma2" or not 0.0 < sigma2 < math.inf:
        raise ValueError(f"bad archive line: {line!r}")
    return sigma2


def predict_from_archive(ensembles, grid, grid_means) -> MixedSummary:
    """Re-predict on a new grid from archived (sigma2, trees) pairs.

    Draws of uneven tree counts or leaf vectors of different lengths raise
    ValueError naming the draw; :func:`predict_mixed` checks ``grid_means``.
    """
    draws = PosteriorDraws()
    for s, (sigma2, trees) in enumerate(ensembles):
        try:
            draws.append(sigma2, trees)
        except ValueError as exc:
            raise ValueError(f"draw {s}: {exc}") from None
    return predict_mixed(draws, grid, grid_means)


def rmse(a, b) -> float:
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    return float(np.sqrt(np.mean((a - b) ** 2)))
