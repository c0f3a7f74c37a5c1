"""Discriminative positive region discovery.

For every proposal we find its single best cosine match in every other
image (regardless of image label); the proposal plus its k most similar
per-image champions form a cluster.  Clusters are ranked by how many of
their instances come from positively-labeled images, near-duplicates of
already-kept clusters are removed greedily, and the positive members of the
top clusters become the mined region set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import EmptyDatasetError, NoPositivesError
from .geometry import BBox, box_array, iou

POSITIVE = "pos"
NEGATIVE = "neg"
DEDUP_IOU = 0.25  # overlap above which a region duplicates a kept one
DEDUP_FRAC = 0.10  # share of duplicate regions that drops a cluster


@dataclass(frozen=True)
class ImageProposals:
    """One image's label and its proposals in file order: boxes, their
    corner rows and their float64 descriptor rows (pooled from the image's
    feature map).  This is the one in-memory form of ``proposals.jsonl``,
    read by mining, training, the latent update and box regression alike;
    cross-validation holds each scored video frame's boxes in it too."""

    label: str
    boxes: tuple[BBox, ...]
    coords: np.ndarray  # (N, 4)
    features: np.ndarray  # (N, D)

    @classmethod
    def from_boxes(
        cls, label: str, boxes: Sequence[BBox], features: Sequence[np.ndarray]
    ) -> "ImageProposals":
        return cls(
            label=label,
            boxes=tuple(boxes),
            coords=box_array(boxes),
            features=np.stack([np.asarray(f, dtype=np.float64).reshape(-1) for f in features]),
        )

    def __len__(self) -> int:
        return len(self.boxes)


@dataclass(frozen=True)
class Proposal:
    """One region proposal named by its image and in-image index; its
    descriptor is row ``index`` of that image's :class:`ImageProposals`."""

    image_id: str
    index: int
    box: BBox

    @property
    def prop_id(self) -> str:
        return f"{self.image_id}#{self.index}"


@dataclass(frozen=True)
class Cluster:
    """A seed proposal plus its nearest-neighbor members.

    ``members`` holds (proposal, similarity) pairs sorted by similarity
    descending, at most one per image and never from the seed's own image.
    ``positive_count`` counts members from positive images, plus the seed
    when its own image is positive.
    """

    seed: Proposal
    members: tuple[tuple[Proposal, float], ...]
    positive_count: int

    @property
    def cluster_id(self) -> str:
        return self.seed.prop_id

    def mean_member_similarity(self) -> float:
        if not self.members:
            return 0.0
        return sum(s for _, s in self.members) / len(self.members)

    def all_regions(self) -> list[Proposal]:
        return [self.seed] + [p for p, _ in self.members]


@dataclass(frozen=True)
class MinedRegion:
    """A mined positive region with its cluster provenance."""

    region_id: str
    image_id: str
    box: BBox
    cluster_id: str
    cluster_rank: int


def build_clusters(proposals_by_image: Mapping[str, ImageProposals], k: int) -> list[Cluster]:
    """Cluster every proposal with its k most similar per-image champions.

    The champion of a seed in another image is that image's single most
    cosine-similar proposal (tie: lowest index).  Members are the k best
    champions ordered by (similarity desc, image_id asc, index asc), which
    makes the output invariant to proposal file ordering.  A zero-norm
    descriptor scores 0 against everything.

    The images' feature matrices are concatenated in sorted image order and
    scored one seed image at a time: a block of that image's rows against
    every proposal, so memory stays at (proposals in one image) x (all
    proposals) rather than the full square.  Dots and norms come from
    ``np.vecdot``, which runs the same per-pair kernel as ``np.dot``, and
    each similarity is ``a.b / (|a| |b|)``, so every float is bit-identical
    to scoring the pairs one at a time.  A BLAS matrix product sums in a
    different order, and pre-normalised rows round differently, so both
    can flip a champion on a last-ulp tie.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    image_ids = sorted(proposals_by_image)
    if not image_ids:
        raise EmptyDatasetError("no images in proposal dataset")
    images = [proposals_by_image[img] for img in image_ids]
    props = [
        Proposal(img, index, box)
        for img, image in zip(image_ids, images)
        for index, box in enumerate(image.boxes)
    ]
    feats = np.concatenate([image.features for image in images])
    if not np.isfinite(feats).all():
        raise ValueError("proposal features must be finite")
    norms = np.sqrt(np.vecdot(feats, feats))
    live = norms >= 1e-12
    sizes = np.array([len(image) for image in images])
    ends = np.cumsum(sizes)
    starts = ends - sizes
    owner = np.repeat(np.arange(len(image_ids)), sizes)
    positive = np.array([image.label == POSITIVE for image in images])

    clusters: list[Cluster] = []
    for s, img in enumerate(image_ids):
        rows = slice(starts[s], ends[s])
        sim = np.zeros((sizes[s], len(props)))
        np.divide(
            np.vecdot(feats[rows, None, :], feats),
            np.outer(norms[rows], norms),
            out=sim,
            where=np.outer(live[rows], live),
        )
        # champions in image order; argmax keeps the lowest index on ties
        others = [o for o in range(len(image_ids)) if o != s]
        champ = np.empty((sizes[s], len(others)), dtype=np.intp)
        for col, o in enumerate(others):
            champ[:, col] = starts[o] + np.argmax(sim[:, starts[o] : ends[o]], axis=1)
        champ_sim = np.take_along_axis(sim, champ, axis=1)
        # stable on -sim, so equal similarities stay in image order
        order = np.argsort(-champ_sim, axis=1, kind="stable")[:, :k]
        top = np.take_along_axis(champ, order, axis=1)
        top_sim = np.take_along_axis(champ_sim, order, axis=1)
        counts = int(positive[s]) + positive[owner[top]].sum(axis=1)
        for seed, idx, sims, count in zip(
            props[rows], top.tolist(), top_sim.tolist(), counts.tolist()
        ):
            members = tuple((props[j], sim_j) for j, sim_j in zip(idx, sims))
            clusters.append(Cluster(seed=seed, members=members, positive_count=count))
    return clusters


def rank_clusters(clusters: Sequence[Cluster]) -> list[Cluster]:
    """Sort by positive count desc, then mean member similarity desc, then seed id."""
    return sorted(
        clusters,
        key=lambda c: (
            -c.positive_count,
            -c.mean_member_similarity(),
            c.seed.image_id,
            c.seed.index,
        ),
    )


def dedup_clusters(ranked: Sequence[Cluster]) -> list[Cluster]:
    """Greedily drop clusters that are near-duplicates of already-kept ones.

    Scanning in rank order, a cluster is removed when at least
    ``ceil(DEDUP_FRAC * size)`` of its regions (seed included) have IOU above
    ``DEDUP_IOU`` with a same-image region of any kept cluster.  Output is
    always a subsequence of the input.
    """
    kept: list[Cluster] = []
    kept_boxes: dict[str, list[BBox]] = {}
    for cluster in ranked:
        regions = cluster.all_regions()
        needed = math.ceil(DEDUP_FRAC * len(regions))
        overlapping = 0
        for region in regions:
            if any(iou(region.box, b) > DEDUP_IOU for b in kept_boxes.get(region.image_id, ())):
                overlapping += 1
                if overlapping >= needed:
                    break
        if overlapping >= needed:
            continue
        kept.append(cluster)
        for region in regions:
            kept_boxes.setdefault(region.image_id, []).append(region.box)
    return kept


def select_positive_regions(
    deduped: Sequence[Cluster],
    labels: Mapping[str, str],
    top_c: int = 200,
) -> list[MinedRegion]:
    """Union of positive-image regions from the top-C clusters.

    Duplicate (image, box) pairs collapse to their first (best-ranked)
    occurrence.  Raises :class:`NoPositivesError` when nothing survives,
    which signals that mining failed for the category.
    """
    seen: set[tuple[str, tuple[float, float, float, float]]] = set()
    regions: list[MinedRegion] = []
    for rank, cluster in enumerate(deduped[: max(0, top_c)]):
        for region in cluster.all_regions():
            if labels.get(region.image_id) != POSITIVE:
                continue
            key = (region.image_id, region.box.sort_key())
            if key in seen:
                continue
            seen.add(key)
            regions.append(
                MinedRegion(
                    region_id=f"r{len(regions):05d}",
                    image_id=region.image_id,
                    box=region.box,
                    cluster_id=cluster.cluster_id,
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
