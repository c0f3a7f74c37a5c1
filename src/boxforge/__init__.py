"""boxforge: pseudo ground-truth box discovery from weakly-labeled data.

Mines discriminative regions in weakly-labeled images, matches them into
videos over per-frame feature maps, transfers tracked object boxes back via
4-D Hough voting with mean-shift, and trains/evaluates detectors on the
resulting pseudo ground truth.  Each name is imported from the module that
defines it (``boxforge.geometry.BBox``, ``boxforge.voting.VoteSpace``, ...).
"""

import os

# OpenBLAS reads this when numpy loads it, and every submodule imports numpy
# after this line.  A second BLAS thread saves no time on these arrays but
# burns CPU as it starts in every process, and at two threads a dot longer
# than 10,000 elements sums in another order; one thread gives every host
# the same bytes.  A value set by the caller wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
