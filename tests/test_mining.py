import math
from typing import NamedTuple

import numpy as np
import pytest

from boxforge.errors import EmptyDatasetError, NoPositivesError
from boxforge.geometry import BBox, iou
from boxforge.mining import (
    Cluster,
    ImageProposals,
    Proposal,
    best_region_per_image,
    build_clusters,
    dedup_clusters,
    rank_clusters,
    select_positive_regions,
)


def prop(image_id, index, box=None):
    return Proposal(image_id=image_id, index=index, box=box or BBox(0, 0, 10, 10))


def dataset(layout):
    """layout: {image_id: (label, [features]) or (label, [(feature, box)])}
    -> ({image_id: ImageProposals}, {image_id: label})"""
    images, labels = {}, {}
    for image_id, (label, items) in layout.items():
        pairs = [item if isinstance(item, tuple) else (item, None) for item in items]
        images[image_id] = ImageProposals.from_boxes(
            label,
            [box or BBox(0, 0, 10, 10) for _, box in pairs],
            [np.asarray(feature, dtype=np.float64) for feature, _ in pairs],
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
            OracleProposal(image_id, i, box, image.features[i])
            for i, box in enumerate(image.boxes)
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


def oracle_rank(clusters):
    def mean_sim(members):
        return sum(s for _, s in members) / len(members) if members else 0.0

    return sorted(
        clusters,
        key=lambda c: (-c[2], -mean_sim(c[1]), c[0].image_id, c[0].index),
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


def cluster_signature(c: Cluster):
    # similarities compare as exact floats, not approximately
    return (c.seed.prop_id, tuple((p.prop_id, s) for p, s in c.members), c.positive_count)


def oracle_signature(c):
    seed, members, count = c
    return (seed.prop_id, tuple((p.prop_id, s) for p, s in members), count)


def assert_matches_oracle(images, labels, k):
    got = build_clusters(images, k)
    want = oracle_build(per_proposal(images), labels, k)
    assert [cluster_signature(c) for c in got] == [oracle_signature(c) for c in want]
    assert all(type(s) is float for c in got for _, s in c.members)
    return got


# --- build_clusters ----------------------------------------------------------


class TestBuildClusters:
    def test_k_zero_gives_singletons(self):
        by_image, labels = dataset(
            {"a": ("pos", [[1, 0]]), "b": ("pos", [[0, 1]])}
        )
        clusters = build_clusters(by_image, 0)
        assert all(not c.members for c in clusters)
        assert len(clusters) == 2

    def test_identical_proposals_symmetric(self):
        by_image, labels = dataset(
            {f"i{j}": ("pos", [[1.0, 0.0]]) for j in range(3)}
        )
        clusters = build_clusters(by_image, 2)
        for c in clusters:
            assert len(c.members) == 2
            assert all(s == pytest.approx(1.0) for _, s in c.members)
            assert c.positive_count == 3

    def test_empty_dataset(self):
        with pytest.raises(EmptyDatasetError):
            build_clusters({}, 1)

    def test_champion_is_per_image_best(self):
        by_image, labels = dataset(
            {
                "a": ("pos", [[1.0, 0.0]]),
                "b": ("pos", [[0.9, 0.1], [1.0, 0.0]]),
            }
        )
        clusters = build_clusters(by_image, 1)
        seed_a = next(c for c in clusters if c.seed.image_id == "a")
        assert seed_a.members[0][0].prop_id == "b#1"

    def test_matches_oracle_on_small_random_instance(self):
        rng = np.random.default_rng(11)
        layout = {
            f"img{j}": ("pos" if j % 2 == 0 else "neg", [rng.normal(size=4) for _ in range(2)])
            for j in range(4)
        }
        by_image, labels = dataset(layout)
        got = build_clusters(by_image, 2)
        want = oracle_build(per_proposal(by_image), labels, 2)
        assert [cluster_signature(c) for c in got] == [oracle_signature(c) for c in want]

    def test_zero_norm_seed_and_candidate_score_zero(self):
        by_image, labels = dataset(
            {
                "a": ("pos", [[0.0, 0.0], [1.0, 0.0]]),
                "b": ("pos", [[0.0, 0.0], [-1.0, 0.0]]),
                "c": ("neg", [[0.5, 0.5]]),
            }
        )
        clusters = assert_matches_oracle(by_image, labels, 2)
        zero_seed = next(c for c in clusters if c.seed.prop_id == "a#0")
        # every candidate ties at 0, so each champion is its image's first proposal
        assert [(p.prop_id, s) for p, s in zero_seed.members] == [("b#0", 0.0), ("c#0", 0.0)]
        # b#0 (zero norm, 0) beats b#1 (anti-parallel, -1) as a's champion in b
        seed_a1 = next(c for c in clusters if c.seed.prop_id == "a#1")
        assert dict((p.image_id, (p.prop_id, s)) for p, s in seed_a1.members)["b"] == ("b#0", 0.0)

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
        seed = next(c for c in clusters if c.seed.prop_id == "a#0")
        # within an image the lowest index wins; across images, image id order
        assert [p.prop_id for p, _ in seed.members] == ["b#1", "c#0", "d#1"]
        assert len({s for _, s in seed.members}) == 1

    def test_many_equal_champions_stay_in_image_order(self):
        # enough tied champions that an unstable sort would reorder them
        rng = np.random.default_rng(22)
        layout = {f"t{j:02d}": ("pos", [[1.0, 2.0]]) for j in range(40)}
        layout.update({f"u{j:02d}": ("neg", [rng.normal(size=2)]) for j in range(20)})
        by_image, labels = dataset(layout)
        clusters = assert_matches_oracle(by_image, labels, 59)
        seed = next(c for c in clusters if c.seed.prop_id == "t00#0")
        tied = [p.image_id for p, s in seed.members if s == seed.members[0][1]]
        assert tied == [f"t{j:02d}" for j in range(1, 40)]

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
        assert all(len(c.members) == min(k, 3) for c in clusters)

    def test_single_proposal_images(self):
        rng = np.random.default_rng(21)
        by_image, labels = dataset(
            {f"s{j}": ("pos" if j % 2 else "neg", [rng.normal(size=4)]) for j in range(5)}
        )
        assert_matches_oracle(by_image, labels, 2)

    def test_single_image_has_no_members(self):
        by_image, labels = dataset({"only": ("pos", [[1.0, 0.0], [0.0, 1.0]])})
        clusters = assert_matches_oracle(by_image, labels, 3)
        assert [(c.members, c.positive_count) for c in clusters] == [((), 1), ((), 1)]

    def test_all_negative_similarities_still_pick_a_champion(self):
        by_image, labels = dataset(
            {
                "a": ("pos", [[1.0, 0.5]]),
                "b": ("pos", [[-1.0, -0.2], [-0.3, -1.0], [-2.0, -1.0]]),
            }
        )
        clusters = assert_matches_oracle(by_image, labels, 1)
        member, sim = clusters[0].members[0]
        assert sim < 0
        assert member.prop_id == "b#1"

    def test_non_finite_feature_refused(self):
        by_image, labels = dataset({"a": ("pos", [[1.0, 0.0]]), "b": ("pos", [[np.nan, 1.0]])})
        with pytest.raises(ValueError, match="finite"):
            build_clusters(by_image, 1)

    def test_invariant_to_image_iteration_order(self):
        rng = np.random.default_rng(12)
        layout = {f"im{j}": ("pos", [rng.normal(size=3) for _ in range(2)]) for j in range(3)}
        by_image, labels = dataset(layout)
        reversed_view = {k: by_image[k] for k in reversed(list(by_image))}
        a = build_clusters(by_image, 2)
        b = build_clusters(reversed_view, 2)
        assert [cluster_signature(c) for c in a] == [cluster_signature(c) for c in b]


# --- rank_clusters -----------------------------------------------------------


def make_cluster(seed_img, seed_idx, count, member_sims):
    seed = prop(seed_img, seed_idx)
    members = tuple((prop(f"m{i}", 0), s) for i, s in enumerate(member_sims))
    return Cluster(seed=seed, members=members, positive_count=count)


class TestRankClusters:
    def test_sorts_by_positive_count(self):
        cs = [make_cluster("a", 0, 3, [0.5]), make_cluster("b", 0, 1, [0.5]), make_cluster("c", 0, 2, [0.5])]
        ranked = rank_clusters(cs)
        assert [c.positive_count for c in ranked] == [3, 2, 1]

    def test_ties_broken_by_mean_similarity(self):
        lo = make_cluster("a", 0, 2, [0.2, 0.4])
        hi = make_cluster("b", 0, 2, [0.9, 0.7])
        assert rank_clusters([lo, hi])[0] is hi

    def test_matches_comparison_sort_oracle(self):
        rng = np.random.default_rng(13)
        cs = [
            make_cluster(f"s{i}", i, int(rng.integers(0, 4)), list(rng.random(2)))
            for i in range(20)
        ]
        ranked = rank_clusters(cs)
        oracle = sorted(
            cs,
            key=lambda c: (
                -c.positive_count,
                -(sum(s for _, s in c.members) / len(c.members)),
                c.seed.image_id,
                c.seed.index,
            ),
        )
        assert [cluster_signature(c) for c in ranked] == [cluster_signature(c) for c in oracle]


# --- dedup_clusters ----------------------------------------------------------


def overlap_cluster(seed_img, seed_idx, member_boxes):
    """Cluster whose members sit at given (image, box) spots."""
    seed = prop(seed_img, seed_idx, box=member_boxes[0][1])
    members = tuple((prop(img, seed_idx + 10, box=b), 0.9) for img, b in member_boxes[1:])
    return Cluster(seed=seed, members=members, positive_count=len(member_boxes))


class TestDedupClusters:
    def test_exact_duplicate_removed(self):
        b = BBox(0, 0, 10, 10)
        c1 = overlap_cluster("a", 0, [("a", b), ("b", b)])
        c2 = overlap_cluster("a", 1, [("a", b), ("b", b)])
        kept = dedup_clusters([c1, c2])
        assert kept == [c1]

    def test_disjoint_clusters_kept(self):
        c1 = overlap_cluster("a", 0, [("a", BBox(0, 0, 5, 5)), ("b", BBox(0, 0, 5, 5))])
        c2 = overlap_cluster("a", 1, [("a", BBox(20, 20, 30, 30)), ("b", BBox(20, 20, 30, 30))])
        assert dedup_clusters([c1, c2]) == [c1, c2]

    def test_threshold_is_inclusive_at_ten_percent(self):
        # second cluster: 10 regions (seed + 9), exactly one overlapping ->
        # ceil(0.1 * 10) = 1 -> removed
        base = BBox(0, 0, 10, 10)
        keepers = [("z", base)]
        c1 = overlap_cluster("z", 0, keepers)
        far = [(f"m{i}", BBox(100 + 20 * i, 0, 110 + 20 * i, 10)) for i in range(9)]
        c2 = overlap_cluster("z", 1, [("z", base)] + far)
        assert dedup_clusters([c1, c2]) == [c1]

    def test_just_under_threshold_kept(self):
        # 11 regions, one overlap: ceil(1.1) = 2 > 1 -> kept
        base = BBox(0, 0, 10, 10)
        c1 = overlap_cluster("z", 0, [("z", base)])
        far = [(f"m{i}", BBox(100 + 20 * i, 0, 110 + 20 * i, 10)) for i in range(10)]
        c2 = overlap_cluster("z", 1, [("z", base)] + far)
        assert dedup_clusters([c1, c2]) == [c1, c2]

    def test_output_is_subsequence(self):
        rng = np.random.default_rng(14)
        cs = []
        for i in range(12):
            x = float(rng.integers(0, 40))
            cs.append(overlap_cluster("a", i, [("a", BBox(x, 0, x + 10, 10))]))
        kept = dedup_clusters(cs)
        it = iter(cs)
        assert all(any(c is k for c in it) for k in kept)


# --- select_positive_regions -------------------------------------------------


class TestSelectPositiveRegions:
    def test_negative_members_discarded(self):
        seed = prop("neg0", 0)
        member = (prop("neg1", 0), 0.9)
        c = Cluster(seed=seed, members=(member,), positive_count=0)
        labels = {"neg0": "neg", "neg1": "neg"}
        with pytest.raises(NoPositivesError):
            select_positive_regions([c], labels)

    def test_top_c_larger_than_cluster_count(self):
        by_image, labels = dataset({"a": ("pos", [[1, 0]]), "b": ("pos", [[1, 0]])})
        clusters = rank_clusters(build_clusters(by_image, 1))
        mined = select_positive_regions(clusters, labels, top_c=10_000)
        assert {r.image_id for r in mined} == {"a", "b"}

    def test_duplicates_collapsed_and_union_correct(self):
        box_a, box_b = BBox(0, 0, 5, 5), BBox(10, 10, 20, 20)
        layout = {
            "a": ("pos", [([1.0, 0.0], box_a)]),
            "b": ("pos", [([1.0, 0.05], box_b)]),
            "n": ("neg", [([0.0, 1.0], box_a)]),
        }
        by_image, labels = dataset(layout)
        clusters = rank_clusters(build_clusters(by_image, 2))
        mined = select_positive_regions(clusters, labels, top_c=200)
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
        got = dedup_clusters(rank_clusters(build_clusters(by_image, k)))
        want = oracle_dedup(oracle_rank(oracle_build(per_proposal(by_image), labels, k)))
        assert [cluster_signature(c) for c in got] == [oracle_signature(c) for c in want]
