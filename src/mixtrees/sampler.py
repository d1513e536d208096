"""Backfitting MCMC for mixing simulator predictions with tree weights.

The observation model is y_i ~ N(fhat(x_i)' w(x_i), sigma2) where fhat
holds the K simulator means and the weight functions w are a sum of m
trees with K-vector leaves.  One sweep updates each tree against the
residuals of the others (a Metropolis-Hastings structure move using the
integrated leaf likelihood, then a conjugate redraw of all its leaves) and
finally draws sigma2 from its scaled inverse-chi-squared conditional.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    _log_ml_raw,
    _sample_leaf_raw,
    sample_sigma2,
)
from .trees import (
    CutpointGrid,
    Tree,
    TreePriorConfig,
    propose_birth,
    propose_death,
    propose_rule_change,
)


@dataclass
class PredictionSet:
    """Per-model predictions at the training points and on a prediction grid.

    ``means`` is (n, K); ``variances`` is only needed for the informative
    leaf prior.  ``grid``/``grid_means`` define where mixed predictions and
    weight functions are recorded during sampling.
    """

    means: np.ndarray
    grid: np.ndarray
    grid_means: np.ndarray
    variances: Optional[np.ndarray] = None

    def __post_init__(self):
        self.means = np.atleast_2d(np.asarray(self.means, dtype=float))
        self.grid_means = np.atleast_2d(np.asarray(self.grid_means, dtype=float))
        self.grid = np.atleast_1d(np.asarray(self.grid, dtype=float))
        if self.grid.ndim == 1:
            self.grid = self.grid[:, None]
        if self.variances is not None:
            self.variances = np.atleast_2d(np.asarray(self.variances, dtype=float))
            if self.variances.shape != self.means.shape:
                raise ValueError("variances must match means shape")
        if self.grid_means.shape[0] != self.grid.shape[0]:
            raise ValueError("grid_means rows must match grid")
        if self.grid_means.shape[1] != self.means.shape[1]:
            raise ValueError("grid_means columns must match number of models")
        if not np.all(np.isfinite(self.means)) or not np.all(
            np.isfinite(self.grid_means)
        ):
            raise ValueError("non-finite predictions")

    @property
    def n_models(self) -> int:
        return self.means.shape[1]


@dataclass
class SamplerConfig:
    """Chain settings; ``lam=None`` calibrates the variance prior from data.

    ``structure_moves=False`` and ``fixed_sigma2`` freeze parts of the
    sampler so reduced cases can be compared against closed forms.
    """

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
    split_base: float = 0.95
    split_power: float = 2.0
    birth_prob: float = 0.5
    structure_moves: bool = True
    relocation_moves: bool = False
    fixed_sigma2: Optional[float] = None
    n_hold_sigma2: Optional[int] = None

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("need at least one tree")
        if self.min_leaf_n < 1:
            raise ValueError("min_leaf_n must be at least 1")
        if self.n_keep < 1 or self.thin < 1 or self.n_burn < 0:
            raise ValueError("bad iteration counts")
        if not 0.0 < self.birth_prob < 1.0:
            raise ValueError("birth_prob must be in (0, 1)")
        if self.n_hold_sigma2 is None:
            self.n_hold_sigma2 = self.n_burn // 2


class Chain:
    """One MCMC chain; use :func:`fit_bmm` unless driving sweeps by hand."""

    def __init__(self, X, y, ps: PredictionSet, cfg: SamplerConfig, rng=None):
        self.X = np.atleast_2d(np.asarray(X, dtype=float))
        self.y = np.asarray(y, dtype=float).ravel()
        if self.X.shape[0] != self.y.size:
            raise ValueError("inputs and outputs must align")
        if ps.means.shape[0] != self.y.size:
            raise ValueError("prediction rows must align with the dataset")
        self.ps = ps
        self.cfg = cfg
        self.rng = rng if rng is not None else np.random.default_rng(cfg.seed)
        self.F = ps.means
        self.n, self.n_models = self.F.shape

        self.tree_cfg = TreePriorConfig(
            split_base=cfg.split_base,
            split_power=cfg.split_power,
            cutpoints_per_dim=cfg.cutpoints_per_dim,
            min_leaf_n=cfg.min_leaf_n,
        )
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

        lam = cfg.lam
        if lam is None:
            lam = calibrate_sigma2_prior(self.F, self.y, cfg.nu, cfg.lam_match)
        self.noise = NoisePrior(shape=cfg.nu, scale=lam)

        if cfg.fixed_sigma2 is not None:
            self.sigma2 = float(cfg.fixed_sigma2)
        else:
            self.sigma2 = max(pilot_sigma2(self.F, self.y), 1e-12)

        self.trees = [
            Tree.root_only(self.grid, root_mean) for _ in range(cfg.m)
        ]
        self.fits = np.stack(
            [np.einsum("nk,nk->n", self.F, t.evaluate(self.X)) for t in self.trees]
        )
        self.total_fit = self.fits.sum(axis=0)
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
        return self.y - (self.total_fit - self.fits[j])

    def _leaf_sets_log_ml(self, sets, resid) -> float:
        total = 0.0
        for idx in sets:
            lp = self.leaf_prior_for(idx)
            total += _log_ml_raw(resid[idx], self.F[idx], lp.mean, lp.sd, self.sigma2)
        return total

    def mh_tree_update(self, j: int, structure: bool = True) -> bool:
        """Propose birth or death on tree j and accept via the integrated
        likelihood; then redraw all its leaves.  Returns the accept flag."""
        resid = self.tree_residuals(j)
        accepted = False
        if structure and self.cfg.structure_moves:
            self.n_proposals += 1
            birth = self.rng.random() < self.cfg.birth_prob
            if birth:
                prop = propose_birth(self.trees[j], self.X, self.tree_cfg, self.rng)
                log_kind = np.log1p(-self.cfg.birth_prob) - np.log(self.cfg.birth_prob)
            else:
                prop = propose_death(self.trees[j], self.X, self.tree_cfg, self.rng)
                log_kind = np.log(self.cfg.birth_prob) - np.log1p(-self.cfg.birth_prob)
            accepted = self._try_accept(j, prop, resid, log_kind)
        self._redraw_leaves(j, resid)
        return accepted

    def mh_rule_change(self, j: int) -> bool:
        """Relocate one rule of tree j (warmup move); leaves are redrawn."""
        resid = self.tree_residuals(j)
        self.n_proposals += 1
        prop = propose_rule_change(self.trees[j], self.X, self.tree_cfg, self.rng)
        accepted = self._try_accept(j, prop, resid, 0.0)
        self._redraw_leaves(j, resid)
        return accepted

    def _try_accept(self, j, prop, resid, log_kind) -> bool:
        if not prop.valid:
            return False
        log_ratio = (
            self._leaf_sets_log_ml(prop.new_leaf_sets, resid)
            - self._leaf_sets_log_ml(prop.old_leaf_sets, resid)
            + prop.log_prior_ratio
            + log_kind
            + prop.log_reverse
            - prop.log_forward
        )
        if np.log(self.rng.random()) < log_ratio:
            self.trees[j] = prop.tree
            self.n_accepted += 1
            return True
        return False

    def _redraw_leaves(self, j: int, resid: np.ndarray) -> None:
        tree, fit_j = self.trees[j], self.fits[j]
        rows = tree.node_rows(self.X)
        for leaf in tree.leaf_nodes():
            idx = rows[leaf]
            lp = self.leaf_prior_for(idx)
            value = _sample_leaf_raw(
                resid[idx], self.F[idx], lp.mean, lp.sd, self.sigma2, self.rng
            )
            tree.values[leaf] = value
            fit_j[idx] = self.F[idx] @ value
        self.total_fit = self.fits.sum(axis=0)

    @property
    def total_sse(self) -> float:
        err = self.y - self.total_fit
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
        recover from noise-variance excursions.
        """
        relocate = self.cfg.relocation_moves or warmup
        for j in range(self.cfg.m):
            self.mh_tree_update(j, structure=structure)
            if relocate and structure and self.cfg.structure_moves:
                self.mh_rule_change(j)
        if self.cfg.fixed_sigma2 is None and not hold_sigma2:
            self.sigma2 = sample_sigma2(self.total_sse, self.n, self.noise, self.rng)

    def grid_weights(self) -> np.ndarray:
        """Current weight functions evaluated on the prediction grid."""
        return evaluate_weights_batch(self.trees, self.ps.grid)


def evaluate_weights_batch(trees, X) -> np.ndarray:
    """Weight vectors at every row of X: the sum of the trees' leaf vectors."""
    out = trees[0].evaluate(X)
    for t in trees[1:]:
        out = out + t.evaluate(X)
    return out


@dataclass
class PosteriorDraws:
    """Kept MCMC output: traces plus serialized ensembles and run metadata."""

    grid: np.ndarray
    grid_means: np.ndarray
    sigma2_trace: np.ndarray
    weight_trace: np.ndarray  # (n_kept, n_grid, K)
    mixed_trace: np.ndarray  # (n_kept, n_grid)
    tree_texts: list = field(default_factory=list)
    n_proposals: int = 0
    n_accepted: int = 0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n_kept = self.sigma2_trace.shape[0]
        if self.weight_trace.shape[0] != n_kept or self.mixed_trace.shape[0] != n_kept:
            raise ValueError("trace lengths must agree")
        if self.tree_texts and len(self.tree_texts) != n_kept:
            raise ValueError("tree archive must match kept draws")

    @property
    def n_kept(self) -> int:
        return self.sigma2_trace.shape[0]

    @property
    def acceptance_rate(self) -> float:
        return self.n_accepted / self.n_proposals if self.n_proposals else 0.0

    @classmethod
    def concat(cls, parts: list["PosteriorDraws"]) -> "PosteriorDraws":
        first = parts[0]
        return cls(
            grid=first.grid,
            grid_means=first.grid_means,
            sigma2_trace=np.concatenate([p.sigma2_trace for p in parts]),
            weight_trace=np.concatenate([p.weight_trace for p in parts]),
            mixed_trace=np.concatenate([p.mixed_trace for p in parts]),
            tree_texts=[t for p in parts for t in p.tree_texts],
            n_proposals=sum(p.n_proposals for p in parts),
            n_accepted=sum(p.n_accepted for p in parts),
            meta=dict(first.meta, chains=len(parts)),
        )


def fit_bmm(
    dataset,
    ps: PredictionSet,
    cfg: SamplerConfig,
    callback: Optional[Callable] = None,
) -> PosteriorDraws:
    """Run the backfitting sampler and record posterior draws.

    Trees start as roots at the prior mean and sigma2 at the pilot error
    variance.  After ``n_burn`` warmup sweeps, every ``thin``-th of
    ``n_keep * thin`` further sweeps is kept.  ``callback(sweep, chain)``,
    when given, is invoked after every sweep.
    """
    chain = Chain(dataset.inputs, dataset.outputs, ps, cfg)
    n_grid = ps.grid.shape[0]
    sigma2_trace = np.empty(cfg.n_keep)
    weight_trace = np.empty((cfg.n_keep, n_grid, ps.n_models))
    mixed_trace = np.empty((cfg.n_keep, n_grid))
    tree_texts = []

    total = cfg.n_burn + cfg.n_keep * cfg.thin
    kept = 0
    for sweep in range(total):
        chain.gibbs_sweep(
            structure=sweep > 0,
            warmup=sweep < cfg.n_burn,
            hold_sigma2=sweep < cfg.n_hold_sigma2,
        )
        if callback is not None:
            callback(sweep, chain)
        if sweep >= cfg.n_burn and (sweep - cfg.n_burn) % cfg.thin == 0:
            w = chain.grid_weights()
            sigma2_trace[kept] = chain.sigma2
            weight_trace[kept] = w
            mixed_trace[kept] = np.einsum("gk,gk->g", ps.grid_means, w)
            tree_texts.append([t.encode() for t in chain.trees])
            kept += 1

    return PosteriorDraws(
        grid=ps.grid,
        grid_means=ps.grid_means,
        sigma2_trace=sigma2_trace,
        weight_trace=weight_trace,
        mixed_trace=mixed_trace,
        tree_texts=tree_texts,
        n_proposals=chain.n_proposals,
        n_accepted=chain.n_accepted,
        meta={
            "m": cfg.m,
            "k": cfg.k,
            "informative": cfg.informative,
            "nu": cfg.nu,
            "lam": chain.noise.scale,
            "n_burn": cfg.n_burn,
            "n_keep": cfg.n_keep,
            "thin": cfg.thin,
            "seed": cfg.seed,
            "n_train": chain.n,
            "n_models": chain.n_models,
        },
    )


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


def predict_mixed(draws: PosteriorDraws, grid_means=None) -> MixedSummary:
    """Posterior mean and central 95% band of the mixed prediction, each
    weight function, and the sum of weights, over the stored grid."""
    if draws.n_kept < 1:
        raise ValueError("no kept draws")
    if grid_means is None:
        grid_means = draws.grid_means
        mixed = draws.mixed_trace
    else:
        grid_means = np.atleast_2d(np.asarray(grid_means, dtype=float))
        mixed = np.einsum("gk,sgk->sg", grid_means, draws.weight_trace)
    wsum = draws.weight_trace.sum(axis=2)
    m_lo, m_hi = np.quantile(mixed, [0.025, 0.975], axis=0)
    w_lo, w_hi = np.quantile(draws.weight_trace, [0.025, 0.975], axis=0)
    s_lo, s_hi = np.quantile(wsum, [0.025, 0.975], axis=0)
    return MixedSummary(
        grid=draws.grid,
        mean=mixed.mean(axis=0),
        lo=m_lo,
        hi=m_hi,
        weight_mean=draws.weight_trace.mean(axis=0),
        weight_lo=w_lo,
        weight_hi=w_hi,
        wsum_mean=wsum.mean(axis=0),
        wsum_lo=s_lo,
        wsum_hi=s_hi,
    )


def save_draws(draws: PosteriorDraws, path) -> None:
    """Write the raw draw archive (sigma2 plus encoded trees per draw)."""
    with open(path, "w") as fh:
        for key, val in sorted(draws.meta.items()):
            fh.write(f"# {key} = {val}\n")
        for i in range(draws.n_kept):
            fh.write(f"draw {i} sigma2 {draws.sigma2_trace[i]:.17g}\n")
            for text in draws.tree_texts[i]:
                fh.write(f"tree {text}\n")


def load_draws(path) -> list[tuple[float, list[Tree]]]:
    """Read a draw archive back as (sigma2, trees) pairs for re-prediction."""
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("draw "):
                parts = line.split()
                out.append((float(parts[3]), []))
            elif line.startswith("tree "):
                out[-1][1].append(Tree.decode(line[5:]))
            else:
                raise ValueError(f"bad archive line: {line!r}")
    return out


def predict_from_archive(ensembles, grid, grid_means) -> MixedSummary:
    """Re-predict on a new grid from archived draws."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.ndim == 1:
        grid = grid[:, None]
    grid_means = np.atleast_2d(np.asarray(grid_means, dtype=float))
    weight_trace = np.stack(
        [evaluate_weights_batch(trees, grid) for _, trees in ensembles]
    )
    sigma2 = np.array([s for s, _ in ensembles])
    draws = PosteriorDraws(
        grid=grid,
        grid_means=grid_means,
        sigma2_trace=sigma2,
        weight_trace=weight_trace,
        mixed_trace=np.einsum("gk,sgk->sg", grid_means, weight_trace),
    )
    return predict_mixed(draws)


def rmse(a, b) -> float:
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    return float(np.sqrt(np.mean((a - b) ** 2)))
