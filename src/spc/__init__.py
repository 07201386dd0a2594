"""Stochastic label-space coding: library and experiment harness."""

from .diffcore import Tape, Tensor, backward, param
from .encoder import EncoderParams, encode, init_encoder, init_vib
from .objectives import OBJECTIVES, LossTerms, ObjectiveConfig, spc_loss
from .data import Dataset, gen_mixture, hash_featurize, inject_label_noise, load, save, subsample_train
from .metrics import adjusted_rand_index, kmeans, pearson, silhouette, spearman
from .trainer import RunReport, TrainConfig, adamax_step, batch_loss, sweep, sweep_cells, train, train_jobs

__version__ = "0.1.0"
