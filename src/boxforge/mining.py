"""Discriminative positive region discovery.

For every proposal we find its single best cosine match in every other
image (regardless of image label); the proposal plus its k most similar
per-image champions form a cluster.  Clusters are ranked by how many of
their instances come from positively-labeled images, near-duplicates of
already-kept clusters are removed greedily, and the positive members of the
top clusters become the mined region set.

Every stage reads the clusters from one :class:`Clusters` table of arrays,
one row per seed proposal, built once: ranking returns an order of its
rows, dedup the kept rows in that order, and selection reads the top ones
through them, so no stage copies the table.  :class:`BBox` and
:class:`MinedRegion` objects are made only for the top clusters' regions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import NoPositivesError
from .geometry import BBox, iou_matrix

POSITIVE = "pos"
NEGATIVE = "neg"
DEDUP_IOU = 0.25  # overlap above which a region duplicates a kept one
DEDUP_FRAC = 0.10  # share of duplicate regions that drops a cluster


@dataclass(frozen=True)
class ImageProposals:
    """One image's label and its proposals in file order: their float64
    corner rows and descriptor rows (pooled from the image's feature map).
    This is the one in-memory form of ``proposals.jsonl``, read by mining,
    training, the latent update and box regression alike; cross-validation
    holds each scored video frame's boxes in it too.  A proposal's
    :class:`BBox` is made from its row (:meth:`box`) only where a record
    or a box rule needs one."""

    label: str
    coords: np.ndarray  # (N, 4)
    features: np.ndarray  # (N, D)

    def __len__(self) -> int:
        return len(self.coords)

    def box(self, i: int) -> BBox:
        """Proposal ``i`` as a box, the same floats as its corner row."""
        return BBox(*self.coords[i].tolist())


@dataclass(frozen=True)
class MinedRegion:
    """A mined positive region with its cluster provenance."""

    region_id: str
    image_id: str
    box: BBox
    cluster_id: str
    cluster_rank: int


@dataclass(frozen=True, eq=False)
class Clusters:
    """Clusters as one table, one row per seed proposal.

    A proposal is named by its row: its position in the concatenation of
    every image's proposals in image-id order, so rows sort as proposal ids
    do.  Image ``o`` (``image_ids[o]``) owns rows ``offsets[o]`` to
    ``offsets[o + 1]``.  Per cluster the table holds the ``seed`` row, the
    ``members`` rows (sorted by similarity desc, then image; at most one per
    image and never from the seed's own image), ``mean``, their mean
    similarity (0 with no members), and ``positive``, the number of members
    from positive images plus the seed when its own image is positive.
    Every cluster has the same number of members, ``min(k, images - 1)``.
    """

    image_ids: tuple[str, ...]
    images: tuple[ImageProposals, ...]
    offsets: np.ndarray  # (images + 1,)
    seed: np.ndarray  # (clusters,) rows
    members: np.ndarray  # (clusters, members) rows
    mean: np.ndarray  # (clusters,) float64
    positive: np.ndarray  # (clusters,)

    def __len__(self) -> int:
        return len(self.seed)

    def regions(self, clusters: np.ndarray) -> np.ndarray:
        """The rows of the clusters at ``clusters`` (indices), seed first:
        (len(clusters), members + 1)."""
        return np.column_stack([self.seed[clusters], self.members[clusters]])

    def owners(self, rows: np.ndarray) -> np.ndarray:
        """The image (index into ``image_ids``) of each row."""
        return np.searchsorted(self.offsets, rows, side="right") - 1


BLOCK_BYTES = 1 << 18  # bytes of one block: seed-by-proposal similarities, or cluster rows


def build_clusters(proposals_by_image: Mapping[str, ImageProposals], k: int) -> Clusters:
    """Cluster every proposal with its k most similar per-image champions.

    The champion of a seed in another image is that image's single most
    cosine-similar proposal (tie: lowest index).  Members are the k best
    champions ordered by (similarity desc, image_id asc, index asc), which
    makes the output invariant to proposal file ordering.  A zero-norm
    descriptor scores 0 against everything.  Every image has a proposal,
    as :func:`~boxforge.dataio.read_proposals` groups them.

    The images' feature matrices are concatenated in sorted image order and
    scored a block of seed rows at a time against every proposal, each block
    at most ``BLOCK_BYTES`` of float64, so memory does not grow with the
    square of the proposal count.  Each image's champions are its segment
    maxima (``np.maximum.reduceat``) and the lowest row reaching them.  Dots
    and norms come from ``np.vecdot``, which runs the same per-pair kernel
    as ``np.dot``, and each similarity is ``a.b / (|a| |b|)``, so every float
    is bit-identical to scoring the pairs one at a time.  A BLAS matrix
    product sums in a different order, and pre-normalised rows round
    differently, so both can flip a champion on a last-ulp tie.  A mean
    sums its members' similarities left to right, as ``sum`` over them would.
    """
    image_ids = tuple(sorted(proposals_by_image))
    images = tuple(proposals_by_image[img] for img in image_ids)
    sizes = np.array([len(image) for image in images])
    feats = np.concatenate([image.features for image in images])
    norms = np.sqrt(np.vecdot(feats, feats))
    live = norms >= 1e-12
    n_rows = len(feats)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    owner = np.repeat(np.arange(len(images)), sizes)
    positive = np.array([image.label == POSITIVE for image in images])
    n_members = min(k, len(images) - 1)
    members = np.empty((n_rows, n_members), dtype=np.intp)
    mean = np.zeros(n_rows)
    columns = np.arange(n_rows)
    step = max(1, BLOCK_BYTES // (8 * n_rows))
    for lo in range(0, n_rows, step):
        rows = slice(lo, min(lo + step, n_rows))
        sim = np.zeros((rows.stop - lo, n_rows))
        np.divide(
            np.vecdot(feats[rows, None, :], feats),
            np.outer(norms[rows], norms),
            out=sim,
            where=np.outer(live[rows], live),
        )
        # per image, the lowest row reaching the image's maximum
        best = np.repeat(np.maximum.reduceat(sim, offsets[:-1], axis=1), sizes, axis=1)
        champ = np.minimum.reduceat(np.where(sim == best, columns, n_rows), offsets[:-1], axis=1)
        champ_sim = np.take_along_axis(sim, champ, axis=1)
        # the seed's own image sorts last, so it is never a member
        champ_sim[np.arange(len(champ)), owner[rows]] = -np.inf
        # stable on -sim, so equal similarities stay in image order
        order = np.argsort(-champ_sim, axis=1, kind="stable")[:, :n_members]
        members[rows] = np.take_along_axis(champ, order, axis=1)
        for column in np.take_along_axis(champ_sim, order, axis=1).T:
            mean[rows] += column
    mean /= max(1, n_members)
    return Clusters(
        image_ids=image_ids,
        images=images,
        offsets=offsets,
        seed=columns,
        members=members,
        mean=mean,
        positive=positive[owner] + positive[owner[members]].sum(axis=1),
    )


def rank_clusters(clusters: Clusters) -> np.ndarray:
    """The clusters' indices in rank order: positive count desc, then mean
    member similarity desc (``Clusters.mean``), then seed (image id, index),
    which is seed row order."""
    return np.lexsort((clusters.seed, -clusters.mean, -clusters.positive))


def dedup_clusters(clusters: Clusters, order: np.ndarray) -> np.ndarray:
    """The indices of the clusters kept when, scanning them in ``order``
    (:func:`rank_clusters`), near-duplicates of already-kept ones are
    dropped greedily; always a subsequence of ``order``.

    A cluster is dropped when at least ``ceil(DEDUP_FRAC * size)`` of its
    regions (seed included) have IOU above ``DEDUP_IOU`` with a same-image
    region of any kept cluster.

    ``blocked`` marks every proposal that overlaps a kept region.  The first
    time a kept cluster touches an image, the image's proposals are tested
    against each other once with :func:`iou_matrix`; keeping a region then
    blocks that region's row of the result.  The clusters' rows are gathered
    in ``order`` a block of at most ``BLOCK_BYTES`` at a time.
    """
    size = clusters.members.shape[1] + 1
    needed = math.ceil(DEDUP_FRAC * size)
    offsets = clusters.offsets.tolist()
    blocked = np.zeros(offsets[-1], dtype=bool)
    overlaps: dict[int, np.ndarray] = {}
    kept: list[int] = []
    step = max(1, BLOCK_BYTES // (8 * size))
    for lo in range(0, len(order), step):
        block = order[lo : lo + step]
        for c, rows in zip(block.tolist(), clusters.regions(block)):
            if np.count_nonzero(blocked[rows]) >= needed:
                continue
            kept.append(c)
            for row, o in zip(rows.tolist(), clusters.owners(rows).tolist()):
                if o not in overlaps:
                    coords = clusters.images[o].coords
                    overlaps[o] = iou_matrix(coords, coords) > DEDUP_IOU
                blocked[offsets[o] : offsets[o + 1]] |= overlaps[o][row - offsets[o]]
    return np.array(kept, dtype=np.intp)


def select_positive_regions(
    clusters: Clusters,
    kept: np.ndarray,
    top_c: int,
) -> list[MinedRegion]:
    """Union of positive-image regions from the first ``top_c`` clusters of
    ``kept`` (indices, best first: :func:`dedup_clusters`), seed first,
    then members in order; an image is positive by its proposals' label.

    Duplicate (image, box) pairs collapse to their first (best-ranked)
    occurrence.  Raises :class:`NoPositivesError` when nothing survives,
    which signals that mining failed for the category.
    """
    seen: set[tuple[str, tuple[float, ...]]] = set()
    regions: list[MinedRegion] = []
    offsets = clusters.offsets.tolist()
    for rank, rows in enumerate(clusters.regions(kept[: max(0, top_c)]).tolist()):
        owners = clusters.owners(rows).tolist()
        cluster_id = f"{clusters.image_ids[owners[0]]}#{rows[0] - offsets[owners[0]]}"
        for row, o in zip(rows, owners):
            if clusters.images[o].label != POSITIVE:
                continue
            image_id = clusters.image_ids[o]
            corners = tuple(clusters.images[o].coords[row - offsets[o]].tolist())
            if (image_id, corners) in seen:
                continue
            seen.add((image_id, corners))
            regions.append(
                MinedRegion(
                    region_id=f"r{len(regions):05d}",
                    image_id=image_id,
                    box=BBox(*corners),
                    cluster_id=cluster_id,
                    cluster_rank=rank,
                )
            )
    if not regions:
        raise NoPositivesError("no positive regions mined; category mining failed")
    return regions


def best_region_per_image(mined: Sequence[MinedRegion]) -> dict[str, MinedRegion]:
    """Per image, the region from the best-ranked contributing cluster.

    This is the single-region baseline a detector would be trained on
    without any video transfer.
    """
    best: dict[str, MinedRegion] = {}
    for region in mined:
        cur = best.get(region.image_id)
        if cur is None or (region.cluster_rank, region.region_id) < (cur.cluster_rank, cur.region_id):
            best[region.image_id] = region
    return best
