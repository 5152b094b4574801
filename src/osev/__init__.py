"""Open-set sequence classification with Dirichlet evidence.

Networks output per-class evidence instead of softmax probabilities; the
induced Dirichlet opinion carries an uncertainty mass that drives open-set
rejection, an annealed calibration loss aligns that uncertainty with
correctness, and a three-branch contrastive module debiases the learned
features from static (time-collapsed) shortcuts.
"""

from .evidential import (
    EvidenceFunction,
    NonFiniteInputError,
    batch_probs_and_uncertainty,
    evidence_from_logits,
    threshold_from_train_scores,
)
from .losses import (
    AnnealingSchedule,
    LossWeights,
    NonFiniteLossError,
    annealing_lambda,
    edl_loss_batch,
    euc_loss_grad_evidence,
    total_loss,
)
from .hsic import KernelParams, hsic_biased, hsic_value_and_grad, median_bandwidth, rbf_gram

__version__ = "0.1.0"
