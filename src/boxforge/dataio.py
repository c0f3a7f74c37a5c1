"""File formats shared by the pipeline stages.

Everything row-oriented is JSON-lines with one object per line; boxes are
always 4-arrays ``[x_min, y_min, x_max, y_max]``.  Aggregate documents
(manifest, models, metrics) are sorted-key JSON so reruns are diffable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence, TextIO

import numpy as np

from .atomic import write_atomic
from .detector import BoxRegressor, LinearModel
from .errors import ConfigInvalidError, DegenerateBoxError, MissingInputError
from .featmap import FeatureMap, FeaturePyramid, pool_box_feature, read_fmap, single_level_pyramid
from .geometry import BBox
from .mining import ImageProposals, MinedRegion, MinedRegionSet
from .tracks import FrameSelection, Track
from .transfer import TransferredBox
from .voting import PseudoGT


def dump_json(obj, path: str | Path) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    write_atomic(path, lambda fh: fh.write(text))


class _Row(dict):
    """A parsed JSON object whose missing keys, and values of the wrong
    type, raise :class:`ConfigInvalidError` naming where it was read."""

    __slots__ = ("where",)

    def __init__(self, where: str, pairs: dict):
        super().__init__(pairs)
        self.where = where

    def __missing__(self, key):
        raise ConfigInvalidError(f"{self.where}: missing key {key!r}")

    def typed(self, key: str, convert: Callable):
        """``convert`` of the value at ``key``; a value it refuses with
        ``TypeError``, ``ValueError`` or ``DegenerateBoxError`` is refused
        like a missing one."""
        try:
            return convert(self[key])
        except (TypeError, ValueError, DegenerateBoxError) as exc:
            raise ConfigInvalidError(f"{self.where}: bad value for key {key!r} ({exc})") from exc


def _of(kind: type) -> Callable:
    """A converter that passes a value of ``kind`` as is and refuses any other."""

    def check(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected {kind.__name__}, got {value!r}")
        return value

    return check


_text = _of(str)


def _integer(value) -> int:
    """``value`` as an int; booleans and non-integral numbers are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _real(value) -> float:
    """``value`` as a float; booleans and non-numbers (``"1.5"``) are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _positive(value) -> float:
    value = _real(value)
    if not value > 0:
        raise ValueError(f"expected a positive number, got {value!r}")
    return value


def _names(value) -> tuple[str, ...]:
    if not value:
        raise ValueError("expected at least one name")
    return tuple(_text(n) for n in value)


def _array(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def _objects(value) -> list[_Row]:
    if not isinstance(value, list) or not all(isinstance(v, _Row) for v in value):
        raise TypeError("expected a list of objects")
    return value


def _object(value, where: str) -> _Row:
    if not isinstance(value, _Row):
        raise ConfigInvalidError(f"{where}: expected a JSON object")
    return value


def load_json(path: str | Path) -> _Row:
    p = Path(path)
    if not p.exists():
        raise MissingInputError(f"missing input file: {p}")
    try:
        doc = json.loads(p.read_text(), object_hook=lambda pairs: _Row(str(p), pairs))
    except json.JSONDecodeError as exc:
        raise ConfigInvalidError(f"{p} line {exc.lineno}: malformed JSON ({exc.msg})") from exc
    return _object(doc, str(p))


def write_jsonl(path: str | Path, rows: Iterable[Mapping]) -> None:
    def write(fh: TextIO) -> None:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")

    write_atomic(path, write)


def read_jsonl(path: str | Path) -> list[_Row]:
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
                row = json.loads(line, object_hook=lambda pairs: _Row(where, pairs))
            except json.JSONDecodeError as exc:
                raise ConfigInvalidError(f"{where}: malformed JSON row ({exc.msg})") from exc
            rows.append(_object(row, where))
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
    """Parsed manifest.json: the dataset's table of contents.

    Every feature map it reads must have the channel count of the first one
    it read; a map with another count is refused with
    :class:`ConfigInvalidError` naming both files.
    """

    root: Path
    cell_stride: float
    categories: tuple[str, ...]
    images: tuple[ImageEntry, ...]
    videos: tuple[VideoEntry, ...]
    files: dict[str, str]
    _images_by_id: dict[str, ImageEntry] = field(init=False, repr=False, compare=False)
    _videos_by_id: dict[str, VideoEntry] = field(init=False, repr=False, compare=False)
    _first_fmap: Optional[tuple[Path, int]] = field(
        default=None, init=False, repr=False, compare=False
    )  # (path, channels) of the first map read

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

    def _read_fmap(self, relpath: Path) -> FeatureMap:
        path = self.root / relpath
        fmap = read_fmap(path)
        if self._first_fmap is None:
            object.__setattr__(self, "_first_fmap", (path, fmap.channels))
        first, channels = self._first_fmap
        if fmap.channels != channels:
            raise ConfigInvalidError(
                f"{path}: {fmap.channels} channels, but {first} has {channels}"
            )
        return fmap

    def load_image_fmap(self, image_id: str) -> FeatureMap:
        return self._read_fmap(self.image(image_id).fmap_path)

    def load_video_pyramids(self, video_id: str) -> VideoPyramids:
        entry = self._videos_by_id.get(video_id)
        if entry is None:
            raise MissingInputError(f"video {video_id} not in manifest")
        return VideoPyramids(self, entry.frame_paths)


@dataclass(frozen=True)
class VideoPyramids(Sequence[FeaturePyramid]):
    """A video's scale-1.0 frame pyramids by frame number; indexing a frame
    reads its FMAP, again on every access, so a stage reads what it samples."""

    manifest: Manifest
    paths: tuple[Path, ...]

    def __len__(self) -> int:
        return len(self.paths)

    def __getitem__(self, frame_idx: int) -> FeaturePyramid:
        fmap = self.manifest._read_fmap(self.paths[frame_idx])
        return single_level_pyramid(fmap, self.manifest.cell_stride)


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
            image_id=e.typed("id", _text),
            label=e.typed("label", _text),
            fmap_path=e.typed("fmap", Path),
            size=e.typed("size", lambda size: (_real(size[0]), _real(size[1]))),
        )
        for e in doc.typed("images", _objects)
    )
    videos = tuple(
        VideoEntry(e.typed("id", _text), e.typed("frames", lambda fs: tuple(map(Path, fs))))
        for e in doc.typed("videos", _objects)
    )
    return Manifest(
        root=p.parent,
        cell_stride=doc.typed("cell_stride", _positive),
        categories=doc.typed("categories", _names),
        images=images,
        videos=videos,
        files=doc.typed("files", dict) if "files" in doc else {},
    )


class Dataset:
    """A dataset opened for one run: its manifest, plus the proposals (with
    their pooled descriptors) and tracks, each read on first use and then
    kept for every later stage.

    Feature maps are not kept: :func:`read_proposals` reads each image's map
    once to pool its proposals, and a stage that needs a map again (query
    windows, pseudo-GT and detection descriptors, video frames) reads it
    from disk.  Keeping them would not outgrow memory: an image's kept
    descriptors take 16·N·C bytes (N proposals, 2·C float64 each) against
    4·H·W·C for its map.
    """

    def __init__(self, manifest: Manifest):
        self.manifest = manifest

    @cached_property
    def images(self) -> dict[str, ImageProposals]:
        return read_proposals(self.manifest)

    @cached_property
    def tracks(self) -> dict[str, list[Track]]:
        return read_tracks(self.manifest.path("tracks"))


def open_dataset(manifest_path: str | Path) -> Dataset:
    return Dataset(load_manifest(manifest_path))


# --- proposals.jsonl: {image_id, label, box} ------------------------------


def write_proposals(path: str | Path, images: Mapping[str, tuple[str, Sequence[BBox]]]) -> None:
    """One row per proposal, image by image in the mapping's order; each
    image maps to its label and its boxes."""
    write_jsonl(
        path,
        (
            {"image_id": image_id, "label": label, "box": box.as_list()}
            for image_id, (label, boxes) in images.items()
            for box in boxes
        ),
    )


def read_proposals(manifest: Manifest) -> dict[str, ImageProposals]:
    """Each image's proposals in the manifest's proposal file, in image-id
    order; indices follow file order.  A proposal's descriptor is
    :func:`pool_box_feature` of its box on its image's FMAP, read once per
    image; a ``feature`` key in a row is not read.

    Every row of an image must carry the same label, and it must be the
    image's label in the manifest.  A row or an image that disagrees raises
    :class:`ConfigInvalidError`, and an image the manifest does not list
    :class:`MissingInputError`, before any FMAP is read.
    """
    path = manifest.path("proposals")
    grouped: dict[str, tuple[str, list[BBox]]] = {}
    for row in read_jsonl(path):
        image_id, label = row.typed("image_id", _text), row.typed("label", _text)
        first_label, boxes = grouped.setdefault(image_id, (label, []))
        if label != first_label:
            raise ConfigInvalidError(
                f"{row.where} (image {image_id}): label {label!r}, "
                f"an earlier row of the image has {first_label!r}"
            )
        boxes.append(row.typed("box", BBox.from_list))
    image_ids = sorted(grouped)
    for image_id in image_ids:
        label, listed = grouped[image_id][0], manifest.image(image_id).label
        if label != listed:
            raise ConfigInvalidError(
                f"image {image_id} is labelled {label!r} in {path} "
                f"but {listed!r} in the manifest"
            )
    images = {}
    for image_id in image_ids:
        label, boxes = grouped[image_id]
        fmap = manifest.load_image_fmap(image_id)
        features = [pool_box_feature(fmap, box, manifest.cell_stride) for box in boxes]
        images[image_id] = ImageProposals.from_boxes(label, boxes, features)
    return images


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
            region_id=row.typed("region_id", _text),
            image_id=row.typed("image_id", _text),
            box=row.typed("box", BBox.from_list),
            cluster_id=row.typed("cluster_id", _text),
            cluster_rank=row.typed("cluster_rank", _integer),
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
            video_id=row.typed("video_id", _text),
            track_id=row.typed("track_id", _integer),
            rank=row.typed("rank", _integer),
            frames=tuple(
                (f.typed("t", _integer), f.typed("box", BBox.from_list))
                for f in row.typed("frames", _objects)
            ),
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
            video_id=row.typed("video_id", _text),
            frame_idx=row.typed("frame_idx", _integer),
            box=row.typed("box", BBox.from_list),
            score=row.typed("score", _real),
            track_id=row.typed("track_id", _integer),
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
        out.setdefault(row.typed("image_id", _text), []).append(row.typed("box", BBox.from_list))
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
            image_id=row.typed("image_id", _text),
            box=row.typed("box", BBox.from_list),
            vote=row.typed("vote", _real),
            support=row.typed("support", _integer),
            updated=row.typed("updated", _of(bool)),
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
        out.setdefault(row.typed("category", _text), {}).setdefault(
            row.typed("image_id", _text), []
        ).extend(row.typed("boxes", lambda boxes: [BBox.from_list(b) for b in boxes]))
    return out


# --- detections.jsonl: {image_id, box, score} -------------------------------


def write_detections(path: str | Path, rows: Sequence[tuple[str, BBox, float]]) -> None:
    write_jsonl(
        path,
        ({"image_id": i, "box": b.as_list(), "score": s} for i, b, s in rows),
    )


def read_detections(path: str | Path) -> list[tuple[str, BBox, float]]:
    return [
        (row.typed("image_id", _text), row.typed("box", BBox.from_list), row.typed("score", _real))
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
        weights=doc.typed("weights", _array),
        bias=doc.typed("bias", _real),
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
        weights=doc.typed("weights", _array),
        biases=doc.typed("biases", _array),
    )
