"""Fully-inductive link prediction over hyper-relational knowledge graphs.

The pipeline: parse fact files into :class:`~hyrel.model.Hkg` graphs, build
relation and entity foundation graphs from position-wise interactions,
encode both conditioned on a masked query, decode with edge-biased
self-attention, and score every entity of the vocabulary.  Because no
parameter is tied to a specific entity or relation, a trained model scores
graphs with entirely unseen vocabularies.
"""

__version__ = "0.1.0"

from .errors import (BundleParseError, ConfigError, ContractError, DataError,
                     HyrelError, NumericalError, ParseError, ShapeError, SplitError,
                     VocabularyError)
from .foundation import (EntInteraction, FoundationGraph, InteractionConfig,
                         RelInteraction, build_entity_graph, build_relation_graph,
                         graph_stats, preset)
from .io import DatasetBundle, load_bundle, load_kg, parse_fact_line, write_kg
from .model import (HEAD, PRIMARY_RELATION, TAIL, Hkg, HyperFact, QueryFact, Role,
                    RoleKind, key_role, queries_from_facts, sequence_roles, value_role)
from .evaluation import Metrics, evaluate, evaluate_bundle, rank_of
from .predictor import LinkPredictor, ModelConfig
from .splitting import (SplitConfig, cluster_split, khop_split, louvain_communities,
                        make_bundle, relation_disjoint_filter, split_inductive)
from .training import Checkpoint, TrainConfig, TrainStats, fit, train_step

__all__ = [name for name in dir() if not name.startswith("_")]
