"""File formats shared by the pipeline stages.

Everything row-oriented is JSON-lines with one object per line; boxes are
always 4-arrays ``[x_min, y_min, x_max, y_max]``.  Aggregate documents
(manifest, models, metrics) are sorted-key JSON so reruns are diffable.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TextIO

import numpy as np

from .detector import BoxRegressor, ImageProposals, LinearModel
from .errors import ConfigInvalidError, DimensionMismatchError, MissingInputError
from .featmap import FeatureMap, FeaturePyramid, read_fmap, single_level_pyramid
from .geometry import BBox
from .mining import MinedRegion, MinedRegionSet, Proposal
from .tracks import FrameSelection, Track
from .transfer import TransferredBox
from .voting import PseudoGT


def _write_atomic(path: str | Path, write: Callable[[TextIO], None]) -> None:
    """Run ``write`` on a temp file beside ``path``, then rename it into place.

    A reader never sees a half-written file: on any error the temp file is
    removed and whatever ``path`` held before is left untouched.  The temp
    file is not fsynced, so this holds when the process dies, not after a
    power loss or OS crash.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def dump_json(obj, path: str | Path) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    _write_atomic(path, lambda fh: fh.write(text))


class _Row(dict):
    """A parsed JSON object whose missing keys raise
    :class:`ConfigInvalidError` naming where it was read, not ``KeyError``."""

    __slots__ = ("where",)

    def __init__(self, where: str, pairs: dict):
        super().__init__(pairs)
        self.where = where

    def __missing__(self, key):
        raise ConfigInvalidError(f"{self.where}: missing key {key!r}")


def load_json(path: str | Path):
    p = Path(path)
    if not p.exists():
        raise MissingInputError(f"missing input file: {p}")
    try:
        return json.loads(p.read_text(), object_hook=lambda pairs: _Row(str(p), pairs))
    except json.JSONDecodeError as exc:
        raise ConfigInvalidError(f"{p} line {exc.lineno}: malformed JSON ({exc.msg})") from exc


def write_jsonl(path: str | Path, rows: Iterable[Mapping]) -> None:
    def write(fh: TextIO) -> None:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")

    _write_atomic(path, write)


def read_jsonl(path: str | Path) -> list[dict]:
    p = Path(path)
    if not p.exists():
        raise MissingInputError(f"missing input file: {p}")
    rows = []
    with open(p) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{p} line {lineno}"
            try:
                rows.append(json.loads(line, object_hook=lambda pairs: _Row(where, pairs)))
            except json.JSONDecodeError as exc:
                raise ConfigInvalidError(f"{where}: malformed JSON row ({exc.msg})") from exc
    return rows


@dataclass(frozen=True)
class ImageEntry:
    image_id: str
    label: str
    fmap_path: Path
    size: tuple[float, float]  # (width, height) in pixels


@dataclass(frozen=True)
class VideoEntry:
    video_id: str
    frame_paths: tuple[Path, ...]


@dataclass(frozen=True)
class Manifest:
    """Parsed manifest.json: the dataset's table of contents."""

    root: Path
    cell_stride: float
    categories: tuple[str, ...]
    images: tuple[ImageEntry, ...]
    videos: tuple[VideoEntry, ...]
    files: dict[str, str]
    _images_by_id: dict[str, ImageEntry] = field(init=False, repr=False, compare=False)
    _videos_by_id: dict[str, VideoEntry] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_images_by_id", _index(self.images, "image_id", "image"))
        object.__setattr__(self, "_videos_by_id", _index(self.videos, "video_id", "video"))

    def image(self, image_id: str) -> ImageEntry:
        entry = self._images_by_id.get(image_id)
        if entry is None:
            raise MissingInputError(f"image {image_id} not in manifest")
        return entry

    def path(self, key: str) -> Path:
        if key not in self.files:
            raise MissingInputError(f"manifest lists no {key!r} file")
        return self.root / self.files[key]

    def load_image_fmap(self, image_id: str) -> FeatureMap:
        return read_fmap(self.root / self.image(image_id).fmap_path)

    def load_video_pyramids(self, video_id: str) -> list[FeaturePyramid]:
        entry = self._videos_by_id.get(video_id)
        if entry is None:
            raise MissingInputError(f"video {video_id} not in manifest")
        return [
            single_level_pyramid(read_fmap(self.root / p), self.cell_stride)
            for p in entry.frame_paths
        ]


def _index(entries, id_attr: str, kind: str) -> dict:
    """id -> entry; a repeated id is refused rather than shadowed."""
    by_id = {}
    for entry in entries:
        key = getattr(entry, id_attr)
        if key in by_id:
            raise ConfigInvalidError(f"manifest lists {kind} id {key!r} twice")
        by_id[key] = entry
    return by_id


def load_manifest(path: str | Path) -> Manifest:
    p = Path(path)
    doc = load_json(p)
    images = tuple(
        ImageEntry(
            image_id=e["id"],
            label=e["label"],
            fmap_path=Path(e["fmap"]),
            size=(float(e["size"][0]), float(e["size"][1])),
        )
        for e in doc["images"]
    )
    videos = tuple(
        VideoEntry(video_id=e["id"], frame_paths=tuple(Path(f) for f in e["frames"]))
        for e in doc["videos"]
    )
    return Manifest(
        root=p.parent,
        cell_stride=float(doc["cell_stride"]),
        categories=tuple(doc["categories"]),
        images=images,
        videos=videos,
        files=dict(doc.get("files", {})),
    )


class Dataset:
    """A dataset opened for one run: its manifest, plus the proposals and
    tracks, each parsed on first use and then kept for every later stage.

    Feature maps are read on demand and never kept, since at full scale
    they outgrow memory.
    """

    def __init__(self, manifest: Manifest):
        self.manifest = manifest

    @cached_property
    def proposals(self) -> tuple[dict[str, list[Proposal]], dict[str, str]]:
        """:func:`read_proposals` of the manifest's proposal file."""
        return read_proposals(self.manifest.path("proposals"))

    @cached_property
    def images(self) -> dict[str, ImageProposals]:
        """Each image's proposals as arrays, in image-id order."""
        by_image, labels = self.proposals
        return {
            image_id: ImageProposals.from_boxes(
                labels[image_id],
                [p.box for p in by_image[image_id]],
                [p.feature for p in by_image[image_id]],
            )
            for image_id in sorted(by_image)
        }

    @cached_property
    def tracks(self) -> dict[str, list[Track]]:
        return read_tracks(self.manifest.path("tracks"))


def open_dataset(manifest_path: str | Path) -> Dataset:
    return Dataset(load_manifest(manifest_path))


# --- proposals.jsonl: {image_id, label, box, feature} ---------------------


def write_proposals(path: str | Path, proposals: Sequence[Proposal]) -> None:
    write_jsonl(
        path,
        (
            {
                "image_id": p.image_id,
                "label": p.label,
                "box": p.box.as_list(),
                "feature": [float(x) for x in np.asarray(p.feature).reshape(-1)],
            }
            for p in proposals
        ),
    )


def read_proposals(path: str | Path) -> tuple[dict[str, list[Proposal]], dict[str, str]]:
    """Returns (proposals per image, image label map); indices follow file order.

    Every feature must be finite and as long as the first row's; a row that
    is not raises :class:`ConfigInvalidError` or
    :class:`DimensionMismatchError` naming it.
    """
    by_image: dict[str, list[Proposal]] = {}
    labels: dict[str, str] = {}
    rows = read_jsonl(path)
    features = [np.asarray(row["feature"], dtype=np.float64) for row in rows]
    for n, (row, feature) in enumerate(zip(rows, features), start=1):
        if feature.size != features[0].size:
            raise DimensionMismatchError(
                f"{path} row {n} (image {row['image_id']}): feature length {feature.size}, "
                f"row 1 has {features[0].size}"
            )
    if rows:
        # one check over the stacked features; the row loop only compares lengths
        finite = np.isfinite(np.stack([f.reshape(-1) for f in features])).all(axis=1)
        if not finite.all():
            n = int(np.argmin(finite))
            raise ConfigInvalidError(
                f"{path} row {n + 1} (image {rows[n]['image_id']}): non-finite feature"
            )
    for row, feature in zip(rows, features):
        image_id = row["image_id"]
        props = by_image.setdefault(image_id, [])
        props.append(
            Proposal(
                image_id=image_id,
                index=len(props),
                box=BBox.from_list(row["box"]),
                feature=feature,
                label=row["label"],
            )
        )
        labels[image_id] = row["label"]
    return by_image, labels


# --- regions.jsonl: mined positive regions with provenance ----------------


def write_regions(path: str | Path, mined: MinedRegionSet) -> None:
    write_jsonl(
        path,
        (
            {
                "region_id": r.region_id,
                "image_id": r.image_id,
                "box": r.box.as_list(),
                "cluster_id": r.cluster_id,
                "cluster_rank": r.cluster_rank,
            }
            for r in mined.regions
        ),
    )


def read_regions(path: str | Path) -> MinedRegionSet:
    regions = tuple(
        MinedRegion(
            region_id=row["region_id"],
            image_id=row["image_id"],
            box=BBox.from_list(row["box"]),
            cluster_id=row["cluster_id"],
            cluster_rank=int(row["cluster_rank"]),
        )
        for row in read_jsonl(path)
    )
    seen: list[str] = []
    for r in sorted(regions, key=lambda r: r.cluster_rank):
        if r.cluster_id not in seen:
            seen.append(r.cluster_id)
    return MinedRegionSet(regions=regions, source_cluster_ids=tuple(seen))


# --- tracks.jsonl / selections.jsonl --------------------------------------


def write_tracks(path: str | Path, tracks: Sequence[Track]) -> None:
    write_jsonl(
        path,
        (
            {
                "video_id": t.video_id,
                "track_id": t.track_id,
                "rank": t.rank,
                "frames": [{"t": f, "box": b.as_list()} for f, b in t.frames],
            }
            for t in tracks
        ),
    )


def read_tracks(path: str | Path) -> dict[str, list[Track]]:
    by_video: dict[str, list[Track]] = {}
    for row in read_jsonl(path):
        track = Track(
            video_id=row["video_id"],
            track_id=int(row["track_id"]),
            rank=int(row["rank"]),
            frames=tuple((int(f["t"]), BBox.from_list(f["box"])) for f in row["frames"]),
        )
        by_video.setdefault(track.video_id, []).append(track)
    return by_video


def write_selections(path: str | Path, selections: Sequence[FrameSelection]) -> None:
    write_jsonl(
        path,
        (
            {
                "video_id": s.video_id,
                "frame_idx": s.frame_idx,
                "track_id": s.track_id,
                "box": s.box.as_list(),
                "score": s.score,
            }
            for s in selections
        ),
    )


def read_selections(path: str | Path) -> dict[tuple[str, int], FrameSelection]:
    out: dict[tuple[str, int], FrameSelection] = {}
    for row in read_jsonl(path):
        sel = FrameSelection(
            video_id=row["video_id"],
            frame_idx=int(row["frame_idx"]),
            box=BBox.from_list(row["box"]),
            score=float(row["score"]),
            track_id=int(row["track_id"]),
        )
        out[(sel.video_id, sel.frame_idx)] = sel
    return out


# --- transfers.jsonl: {image_id, box, region_id, video_id, frame_idx, sim}


def write_transfers(path: str | Path, transfers: Sequence[TransferredBox]) -> None:
    write_jsonl(
        path,
        (
            {
                "image_id": t.image_id,
                "box": t.box.as_list(),
                "region_id": t.region_id,
                "video_id": t.video_id,
                "frame_idx": t.frame_idx,
                "sim": t.sim,
            }
            for t in transfers
        ),
    )


def read_transfer_boxes(path: str | Path) -> dict[str, list[BBox]]:
    """Transferred boxes grouped per image (the voting stage's input)."""
    out: dict[str, list[BBox]] = {}
    for row in read_jsonl(path):
        out.setdefault(row["image_id"], []).append(BBox.from_list(row["box"]))
    return out


# --- pseudo_gt.jsonl -------------------------------------------------------


def write_pseudo_gts(path: str | Path, gts: Sequence[PseudoGT]) -> None:
    write_jsonl(
        path,
        (
            {
                "image_id": g.image_id,
                "box": g.box.as_list(),
                "vote": g.vote,
                "support": g.support,
                "updated": g.updated,
            }
            for g in gts
        ),
    )


def read_pseudo_gts(path: str | Path) -> dict[str, PseudoGT]:
    out: dict[str, PseudoGT] = {}
    for row in read_jsonl(path):
        gt = PseudoGT(
            image_id=row["image_id"],
            box=BBox.from_list(row["box"]),
            vote=float(row["vote"]),
            support=int(row["support"]),
            updated=bool(row["updated"]),
        )
        out[gt.image_id] = gt
    return out


# --- gt.jsonl: {image_id, category, boxes} ---------------------------------


def write_gt(path: str | Path, rows: Sequence[tuple[str, str, Sequence[BBox]]]) -> None:
    write_jsonl(
        path,
        (
            {"image_id": image_id, "category": category, "boxes": [b.as_list() for b in boxes]}
            for image_id, category, boxes in rows
        ),
    )


def read_gt(path: str | Path) -> dict[str, dict[str, list[BBox]]]:
    """category -> image_id -> GT boxes."""
    out: dict[str, dict[str, list[BBox]]] = {}
    for row in read_jsonl(path):
        out.setdefault(row["category"], {}).setdefault(row["image_id"], []).extend(
            BBox.from_list(b) for b in row["boxes"]
        )
    return out


# --- detections.jsonl: {image_id, box, score} -------------------------------


def write_detections(path: str | Path, rows: Sequence[tuple[str, BBox, float]]) -> None:
    write_jsonl(
        path,
        ({"image_id": i, "box": b.as_list(), "score": s} for i, b, s in rows),
    )


def read_detections(path: str | Path) -> list[tuple[str, BBox, float]]:
    return [
        (row["image_id"], BBox.from_list(row["box"]), float(row["score"]))
        for row in read_jsonl(path)
    ]


# --- model / regressor JSON --------------------------------------------------


def write_model(path: str | Path, model: LinearModel) -> None:
    dump_json(
        {
            "category_id": model.category_id,
            "dim": int(model.weights.shape[0]),
            "weights": [float(w) for w in model.weights],
            "bias": float(model.bias),
        },
        path,
    )


def read_model(path: str | Path) -> LinearModel:
    doc = load_json(path)
    return LinearModel(
        weights=np.asarray(doc["weights"], dtype=np.float64),
        bias=float(doc["bias"]),
        category_id=doc.get("category_id", ""),
    )


def write_regressor(path: str | Path, reg: BoxRegressor) -> None:
    dump_json(
        {
            "dim": int(reg.weights.shape[1]),
            "weights": [[float(w) for w in row] for row in reg.weights],
            "biases": [float(b) for b in reg.biases],
        },
        path,
    )


def read_regressor(path: str | Path) -> BoxRegressor:
    doc = load_json(path)
    return BoxRegressor(
        weights=np.asarray(doc["weights"], dtype=np.float64),
        biases=np.asarray(doc["biases"], dtype=np.float64),
    )
