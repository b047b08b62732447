"""nagatag: linear-chain CRF part-of-speech tagging toolkit for Nagamese.

The package root exports what a library user needs to train and tag;
everything else is imported from its submodule (nagatag.crf,
nagatag.evaluation, ...).
"""

from nagatag.corpus import TagSet, parse_tagged
from nagatag.crf import tag_corpus, tag_sentence, train_model
from nagatag.features import FeatureConfig
from nagatag.optim import OptimConfig

__version__ = "0.1.0"

__all__ = [
    "FeatureConfig",
    "OptimConfig",
    "TagSet",
    "parse_tagged",
    "tag_corpus",
    "tag_sentence",
    "train_model",
    "__version__",
]
