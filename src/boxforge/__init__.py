"""boxforge: pseudo ground-truth box discovery from weakly-labeled data.

Mines discriminative regions in weakly-labeled images, matches them into
videos over per-frame feature maps, transfers tracked object boxes back via
4-D Hough voting with mean-shift, and trains/evaluates detectors on the
resulting pseudo ground truth.  Each name is imported from the module that
defines it (``boxforge.geometry.BBox``, ``boxforge.voting.VoteSpace``, ...).
"""

__version__ = "0.1.0"
