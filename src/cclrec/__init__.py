"""Causality-aware recommendation toolkit.

Training with a contrastive counterfactual objective, IPS/SNIPS baselines,
propensity and popularity estimation, unbiased-test metrics, and a synthetic
exposure-bias simulator with known ground truth.
"""

from cclrec.data import (
    DataFormatError,
    DatasetBundle,
    ExposureMatrix,
    FeatureTable,
    InteractionTable,
    holdout_split,
    load_coat,
    load_triples,
    unexposed_items,
)
from cclrec.propensity import (
    PopularityTable,
    PropensityTable,
    estimate_popularity,
    estimate_propensity_lr,
    estimate_propensity_nb,
)

__all__ = [
    "DataFormatError",
    "DatasetBundle",
    "ExposureMatrix",
    "FeatureTable",
    "InteractionTable",
    "holdout_split",
    "load_coat",
    "load_triples",
    "unexposed_items",
    "PopularityTable",
    "PropensityTable",
    "estimate_popularity",
    "estimate_propensity_lr",
    "estimate_propensity_nb",
]
