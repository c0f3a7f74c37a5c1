"""boxforge: pseudo ground-truth box discovery from weakly-labeled data.

Mines discriminative regions in weakly-labeled images, matches them into
videos over per-frame feature maps, transfers tracked object boxes back via
4-D Hough voting with mean-shift, and trains/evaluates detectors on the
resulting pseudo ground truth.
"""

from .geometry import BBox, contains, iou, nms, transfer_box
from .featmap import (
    FeatureMap,
    MatchHit,
    QueryWindow,
    read_fmap,
    slide_match,
    window_shape_for_box,
    write_fmap,
)
from .voting import PseudoGT, VoteSpace, mean_shift_modes, select_pseudo_gt

__version__ = "0.1.0"

__all__ = [
    "BBox",
    "FeatureMap",
    "MatchHit",
    "PseudoGT",
    "QueryWindow",
    "VoteSpace",
    "contains",
    "iou",
    "mean_shift_modes",
    "nms",
    "read_fmap",
    "select_pseudo_gt",
    "slide_match",
    "transfer_box",
    "window_shape_for_box",
    "write_fmap",
    "__version__",
]
