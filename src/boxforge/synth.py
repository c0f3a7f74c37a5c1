"""Deterministic synthetic dataset generator.

"Images" and video "frames" are small feature maps, one FMAP each (cell
stride 1), of gaussian noise.  Positive images carry one or more planted
blocks of the category signature at random locations and sizes; negative
images carry only distractor-signature blocks.  Each video contains one
moving planted object whose trajectory is the true candidate track among 8
random-walk distractor tracks.  Proposals per image are the planted boxes,
jittered copies, a context box, distractor boxes, and random boxes; the
pipeline describes each by pooling its image's feature map over it.

Signatures are drawn once per dataset and orthonormalized, which makes
cosine matching analytically predictable: a planted block matches itself
with similarity ~1 and anything else far lower.  Everything is driven by a
single PCG64 stream, so a fixed seed reproduces the dataset byte for byte
(cross-platform determinism is guaranteed at the JSON level).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
import numpy as np

from .dataio import MANIFEST_VERSION, dump_json, write_gt, write_proposals, write_tracks
from .errors import ConfigInvalidError
from .featmap import write_fmap
from .geometry import BBox
from .mining import NEGATIVE, POSITIVE
from .tracks import Track

CATEGORY = "obj"

# (w, h) cell sizes planted in images; all resolve to the same matching
# window under the sizing heuristic, so one-scale matching stays aligned.
BLOCK_SIZES = ((5, 4), (6, 5), (7, 6))
VIDEO_BLOCK = (6, 5)
N_TRACKS = 9
CONTEXT_MARGIN = 2

# Every map gets a constant random background direction (per image, per
# video frame) so that region descriptors differ by how much background
# they pool, and matches against other frames' backgrounds decorrelate.
BACKGROUND_STRENGTH = 0.5
# Planted blocks carry a smooth intensity ramp in block-normalized
# coordinates; it survives bilinear resampling across block sizes and pins
# window matches to their true relative position inside the object.
RAMP_X = 0.35
RAMP_Y = 0.35


@dataclass(frozen=True)
class SynthConfig:
    """The generator's settings, checked as they are built."""

    seed: int = 0
    n_pos_images: int = 8
    n_neg_images: int = 8
    n_videos: int = 2
    frames_per_video: int = 16
    map_height: int = 16
    map_width: int = 16
    channels: int = 8
    signature_strength: float = 4.0
    n_distractors: int = 2
    multi_instance_prob: float = 0.0
    proposals_per_image: int = 12
    noise_sigma: float = 0.05

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigInvalidError(f"seed must be >= 0, got {self.seed}")
        for name in ("signature_strength", "multi_instance_prob", "noise_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigInvalidError(f"{name} must be finite, got {getattr(self, name)}")
        counts = {
            "n_pos_images": self.n_pos_images,
            "n_neg_images": self.n_neg_images,
            "n_videos": self.n_videos,
            "frames_per_video": self.frames_per_video,
            "channels": self.channels,
        }
        for name, value in counts.items():
            if value < 1:
                raise ConfigInvalidError(f"{name} must be >= 1, got {value}")
        if self.map_height < 12 or self.map_width < 12:
            raise ConfigInvalidError("map must be at least 12x12 cells")
        if self.multi_instance_prob > 0 and (self.map_height < 16 or self.map_width < 16):
            raise ConfigInvalidError("multi-instance datasets need a map of at least 16x16 cells")
        if not 0.0 <= self.multi_instance_prob <= 1.0:
            raise ConfigInvalidError(
                f"multi_instance_prob must be in [0, 1], got {self.multi_instance_prob}"
            )
        if self.n_distractors < 1 or self.n_distractors >= self.channels:
            raise ConfigInvalidError("need 1 <= n_distractors < channels for orthogonal signatures")
        if self.noise_sigma < 0:
            raise ConfigInvalidError("noise_sigma must be >= 0")
        if self.signature_strength <= self.noise_sigma:
            raise ConfigInvalidError("signature_strength must exceed noise_sigma")
        if self.proposals_per_image < 8:
            raise ConfigInvalidError("need at least 8 proposals per image")


@dataclass(frozen=True)
class SynthTruth:
    """What the generator planted: per-image GT, per-video true track id."""

    gt_boxes: dict[str, list[BBox]]
    true_tracks: dict[str, int]
    signature: np.ndarray
    distractor_signatures: np.ndarray


def _orthonormal_signatures(rng: np.random.Generator, channels: int, count: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(channels, count)))
    return q.T.copy()


def _plant(arr: np.ndarray, box: BBox, signature: np.ndarray, strength: float) -> None:
    x0, y0, x1, y1 = (int(c) for c in box.as_list())
    w, h = x1 - x0, y1 - y0
    u = (np.arange(w) + 0.5) / w
    v = (np.arange(h) + 0.5) / h
    ramp = 1.0 + RAMP_X * (2.0 * u[None, :] - 1.0) + RAMP_Y * (2.0 * v[:, None] - 1.0)
    arr[y0:y1, x0:x1, :] += strength * ramp[:, :, None] * signature


def _random_box(rng: np.random.Generator, width: int, height: int) -> BBox:
    w = int(rng.integers(3, min(9, width)))
    h = int(rng.integers(3, min(7, height)))
    x0 = int(rng.integers(0, width - w + 1))
    y0 = int(rng.integers(0, height - h + 1))
    return BBox(x0, y0, x0 + w, y0 + h)


def _jitter_boxes(rng: np.random.Generator, box: BBox, width: int, height: int) -> list[BBox]:
    """Two one-cell shifts of the box along axes that stay in bounds."""
    shifts = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    valid = [
        (dx, dy)
        for dx, dy in shifts
        if 0 <= box.x_min + dx and box.x_max + dx <= width
        and 0 <= box.y_min + dy and box.y_max + dy <= height
    ]
    picked = [valid[int(i)] for i in rng.permutation(len(valid))[:2]]
    return [
        BBox(box.x_min + dx, box.y_min + dy, box.x_max + dx, box.y_max + dy)
        for dx, dy in picked
    ]


def _context_box(box: BBox, width: int, height: int) -> BBox:
    return BBox(
        max(0.0, box.x_min - CONTEXT_MARGIN),
        max(0.0, box.y_min - CONTEXT_MARGIN),
        min(float(width), box.x_max + CONTEXT_MARGIN),
        min(float(height), box.y_max + CONTEXT_MARGIN),
    )


def _walk_step(rng: np.random.Generator, pos: int, low: int, high: int) -> int:
    return int(np.clip(pos + rng.integers(-1, 2), low, high))


def gen_dataset(config: SynthConfig, out_dir: str | Path) -> SynthTruth:
    """Write manifest, FMAP files, proposals, tracks, GT, and truth files.

    Returns the planted truth.  Byte-deterministic for a fixed config.
    """
    rng = np.random.default_rng(config.seed)
    out = Path(out_dir)
    (out / "fmaps").mkdir(parents=True, exist_ok=True)
    H, W, C = config.map_height, config.map_width, config.channels
    sigs = _orthonormal_signatures(rng, C, 1 + config.n_distractors)
    category_sig = sigs[0]
    distractor_sigs = sigs[1:]

    image_entries = []
    proposals: dict[str, tuple[str, list[BBox]]] = {}
    gt_rows: list[tuple[str, str, list[BBox]]] = []
    gt_boxes: dict[str, list[BBox]] = {}

    def _noise() -> np.ndarray:
        background = rng.normal(size=C)
        background /= np.linalg.norm(background)
        arr = rng.normal(0.0, config.noise_sigma, size=(H, W, C))
        return arr + BACKGROUND_STRENGTH * background

    def _add_proposals(image_id: str, label: str, structured: list[BBox]) -> None:
        boxes = list(structured)
        while len(boxes) < config.proposals_per_image:
            boxes.append(_random_box(rng, W, H))
        proposals[image_id] = (label, boxes)

    # Positive images: one planted category block, sometimes two.
    for i in range(config.n_pos_images):
        image_id = f"pos_{i:03d}"
        arr = _noise()
        two_instances = rng.random() < config.multi_instance_prob
        instances: list[BBox] = []
        if two_instances:
            bw, bh = VIDEO_BLOCK
            x0 = int(rng.integers(0, 3))
            y0 = int(rng.integers(0, 3))
            instances.append(BBox(x0, y0, x0 + bw, y0 + bh))
            x1 = int(rng.integers(W - bw - 1, W - bw + 1))
            y1 = int(rng.integers(H - bh - 1, H - bh + 1))
            instances.append(BBox(x1, y1, x1 + bw, y1 + bh))
        else:
            bw, bh = BLOCK_SIZES[int(rng.integers(len(BLOCK_SIZES)))]
            x0 = int(rng.integers(0, W - bw + 1))
            y0 = int(rng.integers(0, H - bh + 1))
            instances.append(BBox(x0, y0, x0 + bw, y0 + bh))
        for inst in instances:
            _plant(arr, inst, category_sig, config.signature_strength)
        structured = list(instances)
        structured.extend(_jitter_boxes(rng, instances[0], W, H))
        structured.append(_context_box(instances[0], W, H))
        _add_proposals(image_id, POSITIVE, structured)
        image_entries.append(
            {"id": image_id, "label": POSITIVE, "fmap": f"fmaps/{image_id}.fmap", "size": [W, H]}
        )
        write_fmap(out / "fmaps" / f"{image_id}.fmap", arr)
        gt_rows.append((image_id, CATEGORY, list(instances)))
        gt_boxes[image_id] = list(instances)

    # Negative images: distractor signatures only.
    for i in range(config.n_neg_images):
        image_id = f"neg_{i:03d}"
        arr = _noise()
        n_blocks = 1 + int(rng.integers(0, 2))
        structured = []
        for b in range(n_blocks):
            sig = distractor_sigs[(i + b) % len(distractor_sigs)]
            bw, bh = BLOCK_SIZES[int(rng.integers(len(BLOCK_SIZES)))]
            x0 = int(rng.integers(0, W - bw + 1))
            y0 = int(rng.integers(0, H - bh + 1))
            box = BBox(x0, y0, x0 + bw, y0 + bh)
            _plant(arr, box, sig, config.signature_strength)
            structured.append(box)
        _add_proposals(image_id, NEGATIVE, structured)
        image_entries.append(
            {"id": image_id, "label": NEGATIVE, "fmap": f"fmaps/{image_id}.fmap", "size": [W, H]}
        )
        write_fmap(out / "fmaps" / f"{image_id}.fmap", arr)

    # Videos: one moving object, 8 random-walk distractor tracks.
    video_entries = []
    tracks: list[Track] = []
    true_tracks: dict[str, int] = {}
    bw, bh = VIDEO_BLOCK
    for v in range(config.n_videos):
        video_id = f"vid_{v:03d}"
        vdir = out / "fmaps" / video_id
        vdir.mkdir(parents=True, exist_ok=True)
        x = int(rng.integers(0, W - bw + 1))
        y = int(rng.integers(0, H - bh + 1))
        true_frames = []
        frame_paths = []
        for f in range(config.frames_per_video):
            arr = _noise()
            box = BBox(x, y, x + bw, y + bh)
            _plant(arr, box, category_sig, config.signature_strength)
            true_frames.append((f, box))
            rel = f"fmaps/{video_id}/frame_{f:03d}.fmap"
            write_fmap(out / rel, arr)
            frame_paths.append(rel)
            x = _walk_step(rng, x, 0, W - bw)
            y = _walk_step(rng, y, 0, H - bh)
        video_entries.append({"id": video_id, "frames": frame_paths})

        true_id = int(rng.integers(N_TRACKS))
        ranks = [int(r) + 1 for r in rng.permutation(N_TRACKS)]
        true_tracks[video_id] = true_id
        distractor_walks = []
        for _ in range(N_TRACKS - 1):
            dw = int(rng.integers(3, 9))
            dh = int(rng.integers(3, 7))
            dx = int(rng.integers(0, W - dw + 1))
            dy = int(rng.integers(0, H - dh + 1))
            frames = []
            for f in range(config.frames_per_video):
                frames.append((f, BBox(dx, dy, dx + dw, dy + dh)))
                dx = _walk_step(rng, dx, 0, W - dw)
                dy = _walk_step(rng, dy, 0, H - dh)
            distractor_walks.append(tuple(frames))
        walk_iter = iter(distractor_walks)
        for track_id in range(N_TRACKS):
            frames = tuple(true_frames) if track_id == true_id else next(walk_iter)
            tracks.append(
                Track(video_id=video_id, track_id=track_id, rank=ranks[track_id], frames=frames)
            )

    write_proposals(out / "proposals.jsonl", proposals)
    write_tracks(out / "tracks.jsonl", tracks)
    write_gt(out / "gt.jsonl", gt_rows)
    dump_json(
        {
            "category": CATEGORY,
            "true_tracks": true_tracks,
            "signature": [float(x) for x in category_sig],
        },
        out / "truth.json",
    )
    dump_json(
        {
            "format_version": MANIFEST_VERSION,
            "cell_stride": 1.0,
            "categories": [CATEGORY],
            "images": image_entries,
            "videos": video_entries,
            "files": {
                "proposals": "proposals.jsonl",
                "tracks": "tracks.jsonl",
                "gt": "gt.jsonl",
                "truth": "truth.json",
            },
        },
        out / "manifest.json",
    )
    return SynthTruth(
        gt_boxes=gt_boxes,
        true_tracks=true_tracks,
        signature=category_sig,
        distractor_signatures=distractor_sigs,
    )

