import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from boxforge.errors import NoPositivesError
from boxforge.geometry import BBox, box_array, iou, iou_matrix
from boxforge.mining import (
    Clusters,
    ImageProposals,
    best_region_per_image,
    build_clusters,
    dedup_clusters,
    rank_clusters,
    select_positive_regions,
)


def dataset(layout):
    """layout: {image_id: (label, [features]) or (label, [(feature, box)])}
    -> ({image_id: ImageProposals}, {image_id: label})"""
    images, labels = {}, {}
    for image_id, (label, items) in layout.items():
        pairs = [item if isinstance(item, tuple) else (item, None) for item in items]
        images[image_id] = ImageProposals(
            label,
            box_array([box or BBox(0, 0, 10, 10) for _, box in pairs]),
            np.array([feature for feature, _ in pairs], dtype=np.float64),
        )
        labels[image_id] = label
    return images, labels


class OracleProposal(NamedTuple):
    """A proposal as the oracle reads it: one object per row, with its feature."""

    image_id: str
    index: int
    box: BBox
    feature: np.ndarray

    @property
    def prop_id(self):
        return f"{self.image_id}#{self.index}"


def per_proposal(images):
    """The oracle's input: each image's proposals as one object per row."""
    return {
        image_id: [
            OracleProposal(image_id, i, image.box(i), image.features[i])
            for i in range(len(image))
        ]
        for image_id, image in images.items()
    }


# --- independent exhaustive implementation used as the oracle ---------------


def cosine(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < 1e-12 or nb < 1e-12:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def oracle_build(by_image, labels, k):
    clusters = []
    for img in sorted(by_image):
        for seed in by_image[img]:
            champs = []
            for other in sorted(by_image):
                if other == img:
                    continue
                best = None
                for cand in by_image[other]:
                    sim = cosine(seed.feature, cand.feature)
                    if best is None or sim > best[0]:
                        best = (sim, cand)
                champs.append(best)
            champs.sort(key=lambda c: (-c[0], c[1].image_id, c[1].index))
            members = [(c[1], c[0]) for c in champs[:k]]
            count = int(labels[img] == "pos") + sum(
                1 for p, _ in members if labels[p.image_id] == "pos"
            )
            clusters.append((seed, members, count))
    return clusters


def left_to_right_mean(sims):
    """``sum(sims) / len(sims)`` as Python 3.11's ``sum`` adds floats: left
    to right from 0; 0.0 with no similarities.  (Python 3.12's ``sum``
    compensates, so the loop is spelled out.)"""
    total = 0.0
    for sim in sims:
        total += sim
    return total / max(1, len(sims))


def oracle_rank(clusters):
    return sorted(
        clusters,
        key=lambda c: (-c[2], -left_to_right_mean([s for _, s in c[1]]), c[0].image_id,
                       c[0].index),
    )


def oracle_dedup(ranked):
    kept = []
    kept_regions = []
    for seed, members, count in ranked:
        regions = [seed] + [p for p, _ in members]
        needed = math.ceil(0.1 * len(regions))
        hits = sum(
            1
            for r in regions
            if any(
                kr.image_id == r.image_id and iou(kr.box, r.box) > 0.25
                for kr in kept_regions
            )
        )
        if hits >= needed:
            continue
        kept.append((seed, members, count))
        kept_regions.extend(regions)
    return kept


# --- the object-based implementation the table replaced, kept as an oracle ---


@dataclass(frozen=True)
class Proposal:
    """One region proposal named by its image and in-image index."""

    image_id: str
    index: int
    box: BBox

    @property
    def prop_id(self) -> str:
        return f"{self.image_id}#{self.index}"


@dataclass(frozen=True)
class Cluster:
    """A seed proposal plus its (proposal, similarity) members."""

    seed: Proposal
    members: tuple[tuple[Proposal, float], ...]
    positive_count: int

    def mean_member_similarity(self) -> float:
        return left_to_right_mean([s for _, s in self.members])

    def all_regions(self) -> list[Proposal]:
        return [self.seed] + [p for p, _ in self.members]


def object_build_clusters(proposals_by_image, k):
    """One seed image at a time: a block of that image's rows against every
    proposal, one ``argmax`` per other image, one ``Cluster`` per seed."""
    image_ids = sorted(proposals_by_image)
    images = [proposals_by_image[img] for img in image_ids]
    props = [
        Proposal(img, index, image.box(index))
        for img, image in zip(image_ids, images)
        for index in range(len(image))
    ]
    feats = np.concatenate([image.features for image in images])
    norms = np.sqrt(np.vecdot(feats, feats))
    live = norms >= 1e-12
    sizes = np.array([len(image) for image in images])
    ends = np.cumsum(sizes)
    starts = ends - sizes
    owner = np.repeat(np.arange(len(image_ids)), sizes)
    positive = np.array([image.label == "pos" for image in images])
    clusters = []
    for s, img in enumerate(image_ids):
        rows = slice(starts[s], ends[s])
        sim = np.zeros((sizes[s], len(props)))
        np.divide(
            np.vecdot(feats[rows, None, :], feats),
            np.outer(norms[rows], norms),
            out=sim,
            where=np.outer(live[rows], live),
        )
        others = [o for o in range(len(image_ids)) if o != s]
        champ = np.empty((sizes[s], len(others)), dtype=np.intp)
        for col, o in enumerate(others):
            champ[:, col] = starts[o] + np.argmax(sim[:, starts[o] : ends[o]], axis=1)
        champ_sim = np.take_along_axis(sim, champ, axis=1)
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


def object_rank_clusters(clusters):
    return sorted(
        clusters,
        key=lambda c: (-c.positive_count, -c.mean_member_similarity(), c.seed.image_id, c.seed.index),
    )


def object_dedup_clusters(ranked):
    kept, kept_boxes = [], {}
    for cluster in ranked:
        regions = cluster.all_regions()
        needed = math.ceil(0.1 * len(regions))
        overlapping = 0
        for region in regions:
            if any(iou(region.box, b) > 0.25 for b in kept_boxes.get(region.image_id, ())):
                overlapping += 1
                if overlapping >= needed:
                    break
        if overlapping >= needed:
            continue
        kept.append(cluster)
        for region in regions:
            kept_boxes.setdefault(region.image_id, []).append(region.box)
    return kept


def object_select(deduped, labels, top_c=3):
    """``select_positive_regions`` over ``Cluster`` objects, as (image_id,
    box, cluster_id, cluster_rank) rows."""
    seen, out = set(), []
    for rank, cluster in enumerate(deduped[:top_c]):
        for region in cluster.all_regions():
            key = (region.image_id, tuple(region.box.as_list()))
            if labels.get(region.image_id) == "pos" and key not in seen:
                seen.add(key)
                out.append((region.image_id, region.box, cluster.seed.prop_id, rank))
    return out


# --- the table-copy stages the index order replaced, kept as oracles --------
# Each stage returned a new table: ranking and dedup copied the rows they
# kept, and selection read the first top_c rows of the deduplicated table.


def take(clusters: Clusters, idx) -> Clusters:
    return dataclasses.replace(
        clusters,
        seed=clusters.seed[idx],
        members=clusters.members[idx],
        mean=clusters.mean[idx],
        positive=clusters.positive[idx],
    )


def table_rank_clusters(clusters: Clusters) -> Clusters:
    return take(clusters, np.lexsort((clusters.seed, -clusters.mean, -clusters.positive)))


def table_dedup_clusters(ranked: Clusters) -> Clusters:
    regions = np.column_stack([ranked.seed, ranked.members])
    needed = math.ceil(0.1 * regions.shape[1])
    offsets = ranked.offsets.tolist()
    blocked = np.zeros(offsets[-1], dtype=bool)
    overlaps = {}
    kept = []
    for c, rows in enumerate(regions):
        if np.count_nonzero(blocked[rows]) >= needed:
            continue
        kept.append(c)
        for row, o in zip(rows.tolist(), ranked.owners(rows).tolist()):
            if o not in overlaps:
                coords = ranked.images[o].coords
                overlaps[o] = iou_matrix(coords, coords) > 0.25
            blocked[offsets[o] : offsets[o + 1]] |= overlaps[o][row - offsets[o]]
    return take(ranked, np.array(kept, dtype=np.intp))


def table_select(deduped: Clusters, top_c=200):
    """The regions the table-copy selection mined, as (region_id, image_id,
    box, cluster_id, cluster_rank) rows."""
    top = take(deduped, slice(0, max(0, top_c)))
    seen, out = set(), []
    offsets = top.offsets.tolist()
    for rank, rows in enumerate(np.column_stack([top.seed, top.members]).tolist()):
        owners = top.owners(rows).tolist()
        cluster_id = f"{top.image_ids[owners[0]]}#{rows[0] - offsets[owners[0]]}"
        for row, o in zip(rows, owners):
            image_id = top.image_ids[o]
            box = top.images[o].box(row - offsets[o])
            key = (image_id, tuple(box.as_list()))
            if top.images[o].label == "pos" and key not in seen:
                seen.add(key)
                out.append((f"r{len(out):05d}", image_id, box, cluster_id, rank))
    return out


# --- signatures: one comparable form for tables, objects and the oracle -----


def signature(clusters: Clusters, order=None):
    """Each cluster as (seed id, (member id, ...), mean member similarity,
    positive count), in ``order`` (indices; all of them in table order when
    unset)."""
    names = [
        f"{image_id}#{i}"
        for image_id, image in zip(clusters.image_ids, clusters.images)
        for i in range(len(image))
    ]
    if order is None:
        order = np.arange(len(clusters))
    return [
        (names[seed], tuple(names[j] for j in members), mean, count)
        for seed, members, mean, count in zip(
            clusters.seed[order].tolist(), clusters.members[order].tolist(),
            clusters.mean[order].tolist(), clusters.positive[order].tolist(),
        )
    ]


def region_row(region):
    return (region.region_id, region.image_id, region.box, region.cluster_id,
            region.cluster_rank)


def ranked_signature(clusters: Clusters):
    return signature(clusters, rank_clusters(clusters))


def kept_signature(clusters: Clusters):
    """The clusters dedup keeps of ``clusters`` scanned in table order."""
    return signature(clusters, dedup_clusters(clusters, np.arange(len(clusters))))


def cluster_signature(c: Cluster):
    return (c.seed.prop_id, tuple(p.prop_id for p, _ in c.members), c.mean_member_similarity(),
            c.positive_count)


def oracle_signature(c):
    seed, members, count = c
    return (seed.prop_id, tuple(p.prop_id for p, _ in members),
            left_to_right_mean([s for _, s in members]), count)


def bitwise(signatures):
    """Means as their hex form, so ``==`` compares every bit (and tells
    -0.0 from 0.0)."""
    return [(seed, members, mean.hex(), n) for seed, members, mean, n in signatures]


def assert_matches_oracle(images, labels, k):
    got = build_clusters(images, k)
    want = oracle_build(per_proposal(images), labels, k)
    assert signature(got) == [oracle_signature(c) for c in want]
    assert bitwise(signature(got)) == bitwise(map(cluster_signature, object_build_clusters(images, k)))
    return got


def members_of(clusters, seed_id):
    """The member ids and the mean similarity of the cluster seeded at
    ``seed_id``."""
    return next((members, mean) for seed, members, mean, _ in signature(clusters)
                if seed == seed_id)


def table(boxes_by_image, rows, labels=None):
    """A ``Clusters`` table, and the same clusters as objects, from
    ``{image_id: [BBox, ...]}`` and rows of (seed, members, similarities,
    positive count), each proposal named (image_id, index); every image is
    positive unless ``labels`` says otherwise."""
    image_ids = tuple(sorted(boxes_by_image))
    images = tuple(
        ImageProposals((labels or {}).get(i, "pos"), box_array(boxes_by_image[i]),
                       np.zeros((len(boxes_by_image[i]), 1)))
        for i in image_ids
    )
    offsets = np.concatenate([[0], np.cumsum([len(image) for image in images])])

    def row(spot):
        return offsets[image_ids.index(spot[0])] + spot[1]

    def proposal(spot):
        return Proposal(spot[0], spot[1], boxes_by_image[spot[0]][spot[1]])

    n_members = len(rows[0][1])
    clusters = Clusters(
        image_ids=image_ids,
        images=images,
        offsets=offsets,
        seed=np.array([row(seed) for seed, *_ in rows], dtype=np.intp),
        members=np.array([[row(m) for m in members] for _, members, *_ in rows],
                         dtype=np.intp).reshape(len(rows), n_members),
        mean=np.array([left_to_right_mean(sims) for *_, sims, _ in rows]),
        positive=np.array([count for *_, count in rows]),
    )
    objects = [
        Cluster(proposal(seed), tuple(zip(map(proposal, members), sims)), count)
        for seed, members, sims, count in rows
    ]
    return clusters, objects


# --- build_clusters ----------------------------------------------------------


class TestBuildClusters:
    def test_k_zero_gives_singletons(self):
        by_image, labels = dataset(
            {"a": ("pos", [[1, 0]]), "b": ("pos", [[0, 1]])}
        )
        clusters = build_clusters(by_image, 0)
        assert clusters.members.shape == (2, 0)
        assert clusters.mean.tolist() == [0.0, 0.0]

    def test_identical_proposals_symmetric(self):
        by_image, labels = dataset(
            {f"i{j}": ("pos", [[1.0, 0.0]]) for j in range(3)}
        )
        clusters = build_clusters(by_image, 2)
        assert clusters.members.shape == (3, 2)
        assert clusters.mean.tolist() == pytest.approx([1.0] * 3)
        assert clusters.positive.tolist() == [3, 3, 3]

    def test_champion_is_per_image_best(self):
        by_image, labels = dataset(
            {
                "a": ("pos", [[1.0, 0.0]]),
                "b": ("pos", [[0.9, 0.1], [1.0, 0.0]]),
            }
        )
        clusters = build_clusters(by_image, 1)
        assert members_of(clusters, "a#0")[0] == ("b#1",)

    def test_matches_oracle_on_small_random_instance(self):
        rng = np.random.default_rng(11)
        layout = {
            f"img{j}": ("pos" if j % 2 == 0 else "neg", [rng.normal(size=4) for _ in range(2)])
            for j in range(4)
        }
        by_image, labels = dataset(layout)
        assert_matches_oracle(by_image, labels, 2)

    def test_zero_norm_seed_and_candidate_score_zero(self):
        by_image, labels = dataset(
            {
                "a": ("pos", [[0.0, 0.0], [1.0, 0.0]]),
                "b": ("pos", [[0.0, 0.0], [-1.0, 0.0]]),
                "c": ("neg", [[0.5, 0.5]]),
            }
        )
        clusters = assert_matches_oracle(by_image, labels, 2)
        # every candidate ties at 0, so each champion is its image's first proposal
        assert members_of(clusters, "a#0") == (("b#0", "c#0"), 0.0)
        # b#0 (zero norm, 0) beats b#1 (anti-parallel, -1) as a's champion in b
        assert "b#0" in members_of(clusters, "a#1")[0]

    def test_duplicate_features_tie_break(self):
        f = [0.3, -0.7, 0.2]
        by_image, labels = dataset(
            {
                "b": ("pos", [[1.0, 0.0, 0.0], f, f]),
                "a": ("pos", [f]),
                "c": ("neg", [f, f]),
                "d": ("pos", [[0.0, 1.0, 0.0], f]),
            }
        )
        clusters = assert_matches_oracle(by_image, labels, 3)
        members, mean = members_of(clusters, "a#0")
        # within an image the lowest index wins; across images, image id order
        assert members == ("b#1", "c#0", "d#1")
        assert mean == pytest.approx(1.0)

    def test_many_equal_champions_stay_in_image_order(self):
        # enough tied champions that an unstable sort would reorder them
        rng = np.random.default_rng(22)
        layout = {f"t{j:02d}": ("pos", [[1.0, 2.0]]) for j in range(40)}
        layout.update({f"u{j:02d}": ("neg", [rng.normal(size=2)]) for j in range(20)})
        by_image, labels = dataset(layout)
        clusters = assert_matches_oracle(by_image, labels, 59)
        members, _ = members_of(clusters, "t00#0")
        assert [m.split("#")[0] for m in members[:39]] == [f"t{j:02d}" for j in range(1, 40)]

    @pytest.mark.parametrize("k", [0, 3, 4, 9])
    def test_k_edge_values_match_oracle(self, k):
        rng = np.random.default_rng(20 + k)
        layout = {
            f"im{j}": ("pos" if j < 2 else "neg", [rng.normal(size=3) for _ in range(j % 3 + 1)])
            for j in range(4)
        }
        by_image, labels = dataset(layout)
        clusters = assert_matches_oracle(by_image, labels, k)
        # k >= n_images - 1 keeps a champion from every other image
        assert clusters.members.shape == (len(clusters), min(k, 3))

    def test_single_proposal_images(self):
        rng = np.random.default_rng(21)
        by_image, labels = dataset(
            {f"s{j}": ("pos" if j % 2 else "neg", [rng.normal(size=4)]) for j in range(5)}
        )
        assert_matches_oracle(by_image, labels, 2)

    def test_single_image_has_no_members(self):
        by_image, labels = dataset({"only": ("pos", [[1.0, 0.0], [0.0, 1.0]])})
        clusters = assert_matches_oracle(by_image, labels, 3)
        assert [(members, n) for _, members, _, n in signature(clusters)] == [((), 1), ((), 1)]

    def test_all_negative_similarities_still_pick_a_champion(self):
        by_image, labels = dataset(
            {
                "a": ("pos", [[1.0, 0.5]]),
                "b": ("pos", [[-1.0, -0.2], [-0.3, -1.0], [-2.0, -1.0]]),
            }
        )
        clusters = assert_matches_oracle(by_image, labels, 1)
        members, sim = members_of(clusters, "a#0")
        assert sim < 0
        assert members == ("b#1",)

    def test_invariant_to_image_iteration_order(self):
        rng = np.random.default_rng(12)
        layout = {f"im{j}": ("pos", [rng.normal(size=3) for _ in range(2)]) for j in range(3)}
        by_image, labels = dataset(layout)
        reversed_view = {k: by_image[k] for k in reversed(list(by_image))}
        assert signature(build_clusters(by_image, 2)) == signature(build_clusters(reversed_view, 2))

    def test_blocks_span_images(self, monkeypatch):
        # blocks of one row and of a few rows cut across image boundaries
        rng = np.random.default_rng(23)
        layout = {
            f"im{j}": ("pos" if j % 2 else "neg", [rng.normal(size=3) for _ in range(j % 4 + 1)])
            for j in range(6)
        }
        by_image, labels = dataset(layout)
        want = bitwise(signature(build_clusters(by_image, 3)))
        for block_bytes in (1, 8 * 15 * 3):
            monkeypatch.setattr("boxforge.mining.BLOCK_BYTES", block_bytes)
            assert bitwise(signature(build_clusters(by_image, 3))) == want


# Features with many exact ties: small integers, repeated rows and zero rows.
tie_features = st.lists(st.integers(-2, 2), min_size=3, max_size=3).map(
    lambda v: np.array(v, dtype=np.float64)
)
int_boxes = st.builds(
    lambda x, y, w, h: BBox(float(x), float(y), float(x + w), float(y + h)),
    st.integers(0, 12), st.integers(0, 12), st.integers(1, 8), st.integers(1, 8),
)


@st.composite
def proposal_sets(draw):
    """({image_id: ImageProposals}, labels, k): 1-5 images of 1-4 proposals,
    features and boxes drawn from small sets so both tie often, and k from
    0 to past the number of other images."""
    n_images = draw(st.integers(1, 5))
    layout = {
        f"im{j}": (
            draw(st.sampled_from(["pos", "neg"])),
            draw(st.lists(st.tuples(tie_features, int_boxes), min_size=1, max_size=4)),
        )
        for j in range(n_images)
    }
    images, labels = dataset(layout)
    return images, labels, draw(st.integers(0, n_images + 1))


class TestAgainstObjectOracle:
    """Every table stage equals the object code it replaced, floats bitwise."""

    @settings(max_examples=80, derandomize=True)
    @given(proposal_sets())
    def test_build_rank_dedup_chain(self, case):
        images, labels, k = case
        clusters = build_clusters(images, k)
        objects = object_build_clusters(images, k)
        assert bitwise(signature(clusters)) == bitwise(map(cluster_signature, objects))
        order, ranked_objects = rank_clusters(clusters), object_rank_clusters(objects)
        assert bitwise(signature(clusters, order)) == bitwise(
            map(cluster_signature, ranked_objects)
        )
        kept = dedup_clusters(clusters, order)
        assert bitwise(signature(clusters, kept)) == bitwise(
            map(cluster_signature, object_dedup_clusters(ranked_objects))
        )
        if any(label == "pos" for label in labels.values()):
            want = object_select(object_dedup_clusters(ranked_objects), labels)
            try:
                got = select_positive_regions(clusters, kept, top_c=3)
            except NoPositivesError:
                got = []
            assert [(r.image_id, r.box, r.cluster_id, r.cluster_rank) for r in got] == want

    @settings(max_examples=60, derandomize=True)
    @given(st.data())
    def test_dedup_with_identical_boxes_at_different_indices(self, data):
        n_images = data.draw(st.integers(2, 4))
        pool = [BBox(0, 0, 10, 10), BBox(2, 0, 12, 10), BBox(20, 20, 30, 30)]
        boxes = {
            f"d{j}": data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
            for j in range(n_images)
        }
        n_members = data.draw(st.integers(0, n_images - 1))
        rows = []
        for _ in range(data.draw(st.integers(1, 8))):
            seed_image = data.draw(st.sampled_from(sorted(boxes)))
            others = [i for i in sorted(boxes) if i != seed_image]
            member_images = data.draw(st.permutations(others))[:n_members]
            spot = lambda img: (img, data.draw(st.integers(0, len(boxes[img]) - 1)))
            rows.append((spot(seed_image), [spot(i) for i in member_images],
                         [0.5] * n_members, data.draw(st.integers(0, n_images))))
        clusters, objects = table(boxes, rows)
        assert kept_signature(clusters) == list(
            map(cluster_signature, object_dedup_clusters(objects))
        )


class TestIndexOrderAgainstTableCopies:
    """Ranking, dedup and selection on index orders of one table equal the
    stages that copied the table at each step, floats bitwise."""

    @settings(max_examples=80, derandomize=True)
    @given(proposal_sets(), st.sampled_from([0, 1, 3, 10_000]), st.booleans())
    def test_rank_dedup_select(self, case, top_c, k_zero):
        """Small-integer features tie often; ``k_zero`` forces singleton
        clusters, and a ``top_c`` of 10,000 reads past every kept cluster."""
        images, labels, k = case
        clusters = build_clusters(images, 0 if k_zero else k)
        order = rank_clusters(clusters)
        ranked = table_rank_clusters(clusters)
        assert bitwise(signature(clusters, order)) == bitwise(signature(ranked))
        kept = dedup_clusters(clusters, order)
        deduped = table_dedup_clusters(ranked)
        assert bitwise(signature(clusters, kept)) == bitwise(signature(deduped))
        want = table_select(deduped, top_c)
        try:
            got = select_positive_regions(clusters, kept, top_c=top_c)
        except NoPositivesError:
            got = []
        assert list(map(region_row, got)) == want

    def test_dedup_blocks_span_the_order(self, monkeypatch):
        # blocks of one cluster and of a few clusters give the same kept list
        rng = np.random.default_rng(24)
        layout = {
            f"im{j}": ("pos", [(rng.normal(size=3), BBox(x, 0, x + 10, 10))
                               for x in rng.integers(0, 30, size=4).astype(float)])
            for j in range(5)
        }
        by_image, _ = dataset(layout)
        clusters = build_clusters(by_image, 2)
        order = rank_clusters(clusters)
        want = signature(table_dedup_clusters(table_rank_clusters(clusters)))
        for block_bytes in (1, 8 * 3 * 3, 1 << 18):
            monkeypatch.setattr("boxforge.mining.BLOCK_BYTES", block_bytes)
            assert signature(clusters, dedup_clusters(clusters, order)) == want


# --- rank_clusters -----------------------------------------------------------


def ranked_table(counts_and_sims):
    """Clusters seeded at s{i}#0 with members in m0, m1, ... and the given
    positive counts and member similarities."""
    n_members = len(counts_and_sims[0][1])
    boxes = {f"s{i:02d}": [BBox(0, 0, 10, 10)] for i in range(len(counts_and_sims))}
    boxes.update({f"m{j}": [BBox(0, 0, 10, 10)] for j in range(n_members)})
    rows = [
        ((f"s{i:02d}", 0), [(f"m{j}", 0) for j in range(n_members)], sims, count)
        for i, (count, sims) in enumerate(counts_and_sims)
    ]
    return table(boxes, rows)


class TestRankClusters:
    def test_sorts_by_positive_count(self):
        clusters, _ = ranked_table([(3, [0.5]), (1, [0.5]), (2, [0.5])])
        assert clusters.positive[rank_clusters(clusters)].tolist() == [3, 2, 1]

    def test_ties_broken_by_mean_similarity(self):
        clusters, _ = ranked_table([(2, [0.2, 0.4]), (2, [0.9, 0.7])])
        assert rank_clusters(clusters).tolist() == [1, 0]

    def test_matches_comparison_sort_oracle(self):
        rng = np.random.default_rng(13)
        clusters, objects = ranked_table(
            [(int(rng.integers(0, 4)), list(rng.random(2))) for _ in range(20)]
        )
        assert ranked_signature(clusters) == list(
            map(cluster_signature, object_rank_clusters(objects))
        )

    def test_mean_sums_left_to_right(self):
        """At k = 23 ``build_clusters``' means have the bits of adding each
        cluster's member similarities left to right, which numpy's pairwise
        sum of the same similarities misses in the last bits."""
        rng = np.random.default_rng(16)
        layout = {
            f"im{j:02d}": ("pos" if j % 2 else "neg", [rng.normal(size=6) for _ in range(3)])
            for j in range(24)
        }
        by_image, _ = dataset(layout)
        clusters = build_clusters(by_image, 23)
        objects = object_build_clusters(by_image, 23)
        want = np.array([c.mean_member_similarity() for c in objects])
        assert clusters.mean.tobytes() == want.tobytes()
        pairwise = np.array([np.sum([s for _, s in c.members]) / 23 for c in objects])
        assert pairwise.tobytes() != want.tobytes()
        assert bitwise(ranked_signature(clusters)) == bitwise(
            map(cluster_signature, object_rank_clusters(objects))
        )

    def test_equal_means_keep_seed_order(self):
        # seeds listed out of row order, with equal counts and equal means
        boxes = {image_id: [BBox(0, 0, 10, 10)] for image_id in ("a", "b", "c", "m")}
        clusters, objects = table(boxes, [((i, 0), [("m", 0)], [0.5], 2) for i in "cab"])
        assert clusters.seed[rank_clusters(clusters)].tolist() == sorted(clusters.seed.tolist())
        assert ranked_signature(clusters) == list(
            map(cluster_signature, object_rank_clusters(objects))
        )
        # identical features: every built cluster has the same count and mean
        by_image, _ = dataset({f"i{j:02d}": ("pos", [[1.0, 2.0, 3.0]] * 2) for j in range(18)})
        clusters = build_clusters(by_image, 17)
        assert len(set(clusters.mean.tolist())) == 1
        assert rank_clusters(clusters).tolist() == list(range(len(clusters)))


# --- dedup_clusters ----------------------------------------------------------


def overlap_table(boxes, spots_per_cluster):
    """Clusters whose regions sit at the given (image, index) spots, seed
    first, every one with the same number of members."""
    rows = [
        (spots[0], spots[1:], [0.9] * (len(spots) - 1), len(spots))
        for spots in spots_per_cluster
    ]
    return table(boxes, rows)


class TestDedupClusters:
    def test_exact_duplicate_removed(self):
        b = BBox(0, 0, 10, 10)
        clusters, _ = overlap_table({"a": [b, b], "b": [b]}, [[("a", 0), ("b", 0)], [("a", 1), ("b", 0)]])
        assert kept_signature(clusters) == signature(clusters)[:1]

    def test_disjoint_clusters_kept(self):
        near, far = BBox(0, 0, 5, 5), BBox(20, 20, 30, 30)
        clusters, _ = overlap_table(
            {"a": [near, far], "b": [near, far]}, [[("a", 0), ("b", 0)], [("a", 1), ("b", 1)]]
        )
        assert kept_signature(clusters) == signature(clusters)

    def far_apart(self, n_members):
        base = BBox(0, 0, 10, 10)
        boxes = {"z": [base, base]}
        boxes.update({f"m{i}": [BBox(0, 0, 10, 10), BBox(100, 0, 110, 10)] for i in range(n_members)})
        first = [("z", 0)] + [(f"m{i}", 0) for i in range(n_members)]
        second = [("z", 1)] + [(f"m{i}", 1) for i in range(n_members)]
        return overlap_table(boxes, [first, second])

    def test_threshold_is_inclusive_at_ten_percent(self):
        # second cluster: 10 regions (seed + 9), exactly one overlapping ->
        # ceil(0.1 * 10) = 1 -> removed
        clusters, _ = self.far_apart(9)
        assert kept_signature(clusters) == signature(clusters)[:1]

    def test_just_under_threshold_kept(self):
        # 11 regions, one overlap: ceil(1.1) = 2 > 1 -> kept
        clusters, _ = self.far_apart(10)
        assert kept_signature(clusters) == signature(clusters)

    def test_output_is_subsequence(self):
        rng = np.random.default_rng(14)
        boxes = {"a": []}
        for _ in range(12):
            x = float(rng.integers(0, 40))
            boxes["a"].append(BBox(x, 0, x + 10, 10))
        clusters, objects = overlap_table(boxes, [[("a", i)] for i in range(12)])
        kept = kept_signature(clusters)
        it = iter(signature(clusters))
        assert all(any(c == k for c in it) for k in kept)
        assert kept == list(map(cluster_signature, object_dedup_clusters(objects)))


# --- select_positive_regions -------------------------------------------------


class TestSelectPositiveRegions:
    def test_negative_members_discarded(self):
        box = BBox(0, 0, 10, 10)
        clusters, _ = table({"neg0": [box], "neg1": [box]}, [(("neg0", 0), [("neg1", 0)], [0.9], 0)],
                            labels={"neg0": "neg", "neg1": "neg"})
        with pytest.raises(NoPositivesError):
            select_positive_regions(clusters, np.arange(len(clusters)), top_c=200)

    def test_top_c_larger_than_cluster_count(self):
        by_image, labels = dataset({"a": ("pos", [[1, 0]]), "b": ("pos", [[1, 0]])})
        clusters = build_clusters(by_image, 1)
        mined = select_positive_regions(clusters, rank_clusters(clusters), top_c=10_000)
        assert {r.image_id for r in mined} == {"a", "b"}

    def test_duplicates_collapsed_and_union_correct(self):
        box_a, box_b = BBox(0, 0, 5, 5), BBox(10, 10, 20, 20)
        layout = {
            "a": ("pos", [([1.0, 0.0], box_a)]),
            "b": ("pos", [([1.0, 0.05], box_b)]),
            "n": ("neg", [([0.0, 1.0], box_a)]),
        }
        by_image, labels = dataset(layout)
        clusters = build_clusters(by_image, 2)
        mined = select_positive_regions(clusters, rank_clusters(clusters), top_c=200)
        got = {(r.image_id, tuple(r.box.as_list())) for r in mined}
        assert got == {("a", tuple(box_a.as_list())), ("b", tuple(box_b.as_list()))}
        assert all(labels[r.image_id] == "pos" for r in mined)

    def test_best_region_per_image_prefers_lower_rank(self):
        regions = (
            _mined("r0", "a", 2),
            _mined("r1", "a", 0),
            _mined("r2", "b", 1),
        )
        best = best_region_per_image(regions)
        assert best["a"].region_id == "r1"
        assert best["b"].region_id == "r2"


def _mined(region_id, image_id, rank):
    from boxforge.mining import MinedRegion

    return MinedRegion(
        region_id=region_id,
        image_id=image_id,
        box=BBox(0, 0, 1, 1),
        cluster_id=f"c{rank}",
        cluster_rank=rank,
    )


# --- pipeline-stage equivalence against the oracle on random instances ------


def test_full_mining_chain_matches_oracle_random():
    rng = np.random.default_rng(15)
    for trial in range(10):
        n_images = int(rng.integers(2, 6))
        layout = {}
        for j in range(n_images):
            n_props = int(rng.integers(1, 5))
            items = []
            for _ in range(n_props):
                feat = rng.normal(size=3)
                x = float(rng.integers(0, 30))
                items.append((feat, BBox(x, 0, x + 10, 10)))
            layout[f"im{j}"] = ("pos" if rng.random() < 0.5 else "neg", items)
        by_image, labels = dataset(layout)
        k = int(rng.integers(0, n_images))
        clusters = build_clusters(by_image, k)
        got = signature(clusters, dedup_clusters(clusters, rank_clusters(clusters)))
        want = oracle_dedup(oracle_rank(oracle_build(per_proposal(by_image), labels, k)))
        assert got == [oracle_signature(c) for c in want]
