"""Alignment-based multimodal top-K recommendation engine."""

from .data import Dataset, RawInteractions, kcore_filter, load_interactions, split_dataset
from .errors import (AlignRecError, ConfigError, DataError, DimensionError,
                     EmptyAfterFilterError, EmptyInputError,
                     InternalInvariantError, ParseError, TrainingDivergedError)
from .evaluator import EvalReport, evaluate, longtail_evaluate, rank_all
from .features import FeatureMatrix, align_features, load_features, read_item_list, save_features
from .graphs import GraphBundle, build_graphs, build_knn_similarity, build_norm_interaction
from .losses import (BatchSample, LossWeights, bpr_loss, cca_infonce,
                     reg_similarity, total_loss, uia_cosine)
from .model import (ModelParams, Representations, content_gate, forward, init_params,
                    item_multimodal, lightgcn_propagate, user_multimodal)
from .protocols import (ProtocolConfig, itemcf_eval, itemcf_score,
                        mask_modality_eval, zero_shot_eval)
from .sparse import SparseMatrix
from .trainer import TrainConfig, fit, sample_batch, train_epoch

__version__ = "0.1.0"
