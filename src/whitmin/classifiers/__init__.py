from .base import LabeledSet, choose_threshold, threshold_labels
from .flats import DistanceModel, fit_distance
from .kmeans import KMeansModel, kmeans
from .linear import LINEAR_METHODS, LinearModel, fit_linear
from .quantize import QUANTIZER_KINDS, Quantizer, build_quantizer
from .serialize import ModelFormatError, model_from_dict, model_to_dict
from .tree import TreeLeaf, TreeModel, TreeNode, fit_tree, node_stats

