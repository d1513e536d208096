"""Mix predictions from competing simulators with tree-based weights."""

from .dataset import (
    Dataset,
    TableFormatError,
    generate_observations,
    linspace_grid,
    read_table,
    true_system_2d,
    true_system_phi4,
    write_table,
)
from .eft import (
    EftGp,
    EftPrediction,
    Expansion,
    expansion_runs,
    extract_coefficients,
    fit_eft,
    predict_eft,
    predict_exact,
    strong_coefficients,
    strong_expansion,
    taylor_surface_simulator,
    truncation_cov,
    weak_coefficients,
    weak_expansion,
)
from .trees import (
    CutpointGrid,
    Proposal,
    Tree,
    log_tree_prior,
    propose_birth,
    propose_death,
    sample_tree_from_prior,
    split_probability,
)
from .node_model import (
    LeafPrior,
    NodeData,
    NoisePrior,
    leaf_posterior,
    log_marginal_likelihood,
    sample_leaf,
    sample_sigma2,
)
from .calibration import (
    calibrate_sigma2_prior,
    informative_leaf_mean,
    informative_tau,
    noninformative_leaf_prior,
    pilot_sigma2,
    precision_weights,
)
from .sampler import (
    Chain,
    MixedSummary,
    PosteriorDraws,
    PredictionSet,
    SamplerConfig,
    fit_bmm,
    fit_chains,
    load_draws,
    predict_from_archive,
    predict_mixed,
    rmse,
    save_draws,
)
from .baselines import BmaResult, bma_predict, bma_weights, model_log_evidence, run_bma

__version__ = "0.1.0"
