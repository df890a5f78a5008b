"""Partially identifiable low-dimensional covariate representations via a
partially randomized energy model, trained with a noise-contrastive ranking
loss, as a preprocessing step for CATE estimation."""

from .cate import (
    BaseSpec,
    CateModel,
    KernelRidge,
    PropensityModel,
    Ridge,
    dr_pseudo_outcome,
    fit_learner,
    fit_learners,
    median_gamma,
    propensity_fit,
)
from .config import ExperimentConfig, load_config
from .dgp import Dataset, DgpSpec, gen_dgp, load_csv, sample, save_csv
from .ebm import EbmModel, Encoder, load_model, save_model
from .evalx import ae_fit, effect_predictions, mcc, pca_fit, pehe, write_table
from .nce import (
    CandidateSet,
    TrainConfig,
    build_candidates,
    corrupt,
    nce_loss,
    train_ebm,
    train_ebms,
)
from .numerics import Adam, Mlp, grad_check, make_rng, random_orthogonal
from .partition import PartitionModel, kmeans_fit

__version__ = "0.1.0"
