"""whitmin: statistical recognition of Whitehead-minimal words in free groups.

Core layers:
  words / automorphisms  free-group words, Whitehead moves, minimization
  features               subword-counting feature maps (f0..f6, fstar, pools)
  numerics               eigensolver, least squares, soft-margin SVM by finite Newton
  classifiers            Mahalanobis distance, linear, quantizers, trees, K-means
  datasets / pipeline    labeled word sets, training/evaluation harness
  clustering             4-means length-reduction heuristic
"""

from .automorphisms import (NIELSEN_MOVES, AutomorphismChain, NielsenMove,
                            TypeI, TypeII, WhiteheadAutomorphism,
                            apply_automorphism, is_minimal, minimize,
                            random_automorphism, random_primitive,
                            reducing_moves)
from .datasets import (DatasetSpec, LabeledWordSet, WordRecord,
                       generate_dataset, load_tsv, save_tsv)
from .features import (FeatureMap, Pattern, builtin_map, count_pattern,
                       feature_matrix, feature_vector, pattern_pool,
                       resolve_map)
from .pipeline import (EvaluationReport, Pipeline, PipelineConfig,
                       ScoreHistogram, evaluate, featurize, fit_model,
                       greedy_feature_selection, pipeline_from_json,
                       pipeline_to_json, score_histogram, train_pipeline)
from .clustering import (ClusterReport, EmptyPureSet, clustering_experiment,
                         estimate_initial_centers, predict_reducer)
from .words import CyclicWord, cyclic_reduce, parse_cyclic_word, random_word

__version__ = "0.1.0"
