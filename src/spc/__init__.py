"""Stochastic label-space coding: library and experiment harness."""

from .diffcore import Tape, Tensor, backward, param
from .encoder import EncoderParams, GaussianCode, decode, encode, init_encoder, init_vib, sample
from .objectives import (
    OBJECTIVES,
    LossTerms,
    ObjectiveConfig,
    batch_entropy,
    confidence_penalty,
    kl_to_std_normal,
    mse,
    spc_loss,
    task_nll,
)
from .data import Dataset, gen_mixture, hash_featurize, inject_label_noise, load, save, subsample_train
from .metrics import adjusted_rand_index, kmeans, macro_f1, macro_recall, pearson, silhouette, spearman
from .trainer import RunReport, TrainConfig, adamax_step, batch_loss, sweep, train, train_jobs

__version__ = "0.1.0"
