"""Desk-scale multi-modal instruction tuning: stub modality encoders, a
Conv1D+Linear transform, attention-based alignment against the embedding
matrix, a toy causal decoder, one-stage masked-NLL fine-tuning, and a
caption-to-instruction dataset pipeline.
"""

from . import alignment, autograd, cognitive, dataset, encoders, tokenizer, training
from .autograd import Tensor, finite_diff_check
from .cognitive import DecoderConfig, ModelParams
from .encoders import MediaRef, ModalityConfig
from .tokenizer import Vocab
from .training import Checkpoint, TrainConfig

__all__ = [
    "alignment", "autograd", "cognitive", "dataset", "encoders", "tokenizer",
    "training", "Tensor", "finite_diff_check", "DecoderConfig", "ModelParams",
    "MediaRef", "ModalityConfig", "Vocab", "Checkpoint", "TrainConfig",
]
