"""File formats shared by the pipeline stages.

Everything row-oriented is JSON-lines with one object per line; boxes are
always 4-arrays ``[x_min, y_min, x_max, y_max]``.  A record file's keys are
stated once, in its schema table (``REGION_SCHEMA``, ...).  Aggregate documents
(manifest, models, metrics) are sorted-key JSON so reruns are diffable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, TextIO

import numpy as np

from .atomic import write_atomic
from .detector import BoxRegressor, LinearModel
from .errors import ConfigInvalidError, DegenerateBoxError, MissingInputError
from .featmap import FeatureMap, pool_box_feature, read_fmap
from .geometry import BBox
from .mining import ImageProposals, MinedRegion
from .tracks import FrameSelection, Track
from .transfer import TransferredBox
from .voting import PseudoGT

MANIFEST_VERSION = 1  # a manifest without "format_version" is read as this one


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
    """``value`` as a float; booleans, non-numbers (``"1.5"``) and the
    ``NaN`` and ``Infinity`` literals ``json`` accepts are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _positive(value) -> float:
    value = _real(value)
    if not value > 0:
        raise ValueError(f"expected a positive number, got {value!r}")
    return value


def _size(value) -> tuple[float, float]:
    width, height = value
    return _positive(width), _positive(height)


def _names(value) -> tuple[str, ...]:
    if not value:
        raise ValueError("expected at least one name")
    return tuple(_text(n) for n in value)


def _one_name(value) -> tuple[str]:
    names = _names(value)
    if len(names) > 1:
        raise ValueError(f"expected one category per run, got {len(names)}")
    return names


def _paths(value) -> tuple[Path, ...]:
    return tuple(map(Path, _names(value)))


def _array(value) -> np.ndarray:
    array = np.asarray(value, dtype=np.float64)
    if not np.all(np.isfinite(array)):
        raise ValueError("expected finite numbers")
    return array


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


_ROW_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def write_jsonl(path: str | Path, rows: Iterable[Mapping]) -> None:
    def write(fh: TextIO) -> None:
        for row in rows:
            fh.write(_ROW_ENCODER.encode(row) + "\n")

    write_atomic(path, write)


def read_jsonl(path: str | Path) -> Iterator[_Row]:
    """Each row of a JSON-lines file as it is read, one decoder per file;
    a row that is not a JSON object raises :class:`ConfigInvalidError`
    naming its line."""
    p = Path(path)
    if not p.exists():
        raise MissingInputError(f"missing input file: {p}")
    where = str(p)
    decoder = json.JSONDecoder(object_hook=lambda pairs: _Row(where, pairs))
    with open(p) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{p} line {lineno}"
            try:
                row = decoder.decode(line)
            except json.JSONDecodeError as exc:
                raise ConfigInvalidError(f"{where}: malformed JSON row ({exc.msg})") from exc
            yield _object(row, where)


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

    def load_video_frames(self, video_id: str) -> VideoFrames:
        entry = self._videos_by_id.get(video_id)
        if entry is None:
            raise MissingInputError(f"video {video_id} not in manifest")
        return VideoFrames(self, entry.frame_paths)


@dataclass(frozen=True)
class VideoFrames(Sequence[FeatureMap]):
    """A video's frame maps by frame number; indexing a frame reads its
    FMAP, again on every access, so a stage reads what it samples."""

    manifest: Manifest
    paths: tuple[Path, ...]

    def __len__(self) -> int:
        return len(self.paths)

    def __getitem__(self, frame_idx: int) -> FeatureMap:
        return self.manifest._read_fmap(self.paths[frame_idx])


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
    if "format_version" in doc and doc.typed("format_version", _integer) != MANIFEST_VERSION:
        raise ConfigInvalidError(
            f"{p}: bad value for key 'format_version' (expected {MANIFEST_VERSION})"
        )
    images = tuple(
        ImageEntry(
            image_id=e.typed("id", _text),
            label=e.typed("label", _text),
            fmap_path=e.typed("fmap", Path),
            size=e.typed("size", _size),
        )
        for e in doc.typed("images", _objects)
    )
    videos = tuple(
        VideoEntry(e.typed("id", _text), e.typed("frames", _paths))
        for e in doc.typed("videos", _objects)
    )
    return Manifest(
        root=p.parent,
        cell_stride=doc.typed("cell_stride", _positive),
        categories=doc.typed("categories", _one_name),
        images=images,
        videos=videos,
        files=doc.typed("files", dict) if "files" in doc else {},
    )


class Dataset:
    """A dataset opened for one run: its manifest, plus the proposals (with
    their pooled descriptors) and tracks, each read on first use and then
    kept for every later stage, and the results stages share through
    :meth:`memo`.

    Feature maps are not kept: :func:`read_proposals` reads each image's map
    once to pool its proposals, and a stage that needs a map again (query
    windows, pseudo-GT and detection descriptors, video frames) reads it
    from disk.  Keeping them would not outgrow memory: an image's kept
    descriptors take 16·N·C bytes (N proposals, 2·C float64 each) against
    4·H·W·C for its map.
    """

    def __init__(self, manifest: Manifest):
        self.manifest = manifest
        self._memo: dict = {}

    @cached_property
    def images(self) -> dict[str, ImageProposals]:
        return read_proposals(self.manifest)

    @cached_property
    def tracks(self) -> dict[str, list[Track]]:
        """Each manifest video's tracks; a track of a video the manifest
        does not list is refused."""
        path = self.manifest.path("tracks")
        tracks = read_tracks(path)
        unknown = sorted(set(tracks) - {v.video_id for v in self.manifest.videos})
        if unknown:
            raise ConfigInvalidError(f"{path}: video {unknown[0]!r} is not in the manifest")
        return tracks

    def memo(self, compute: Callable, *args):
        """``compute(self, *args)``, computed once per distinct ``args`` (hashable
        values, compared by value) and then returned to every later caller, who
        must not mutate it.  ``compute`` must read nothing but the dataset and
        ``args``; a call that raises is not remembered."""
        key = (compute, args)
        if key not in self._memo:
            self._memo[key] = compute(self, *args)
        return self._memo[key]


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


def _box_inside(size: tuple[float, float]) -> Callable:
    """A box converter that refuses a box reaching outside the closed image
    rectangle ``[0, width] x [0, height]``."""
    width, height = size

    def check(coords) -> BBox:
        box = BBox.from_list(coords)
        if box.x_min < 0 or box.y_min < 0 or box.x_max > width or box.y_max > height:
            raise ValueError(f"{box.as_list()} lies outside the {width:g}x{height:g} image")
        return box

    return check


def read_proposals(manifest: Manifest) -> dict[str, ImageProposals]:
    """Each image's proposals in the manifest's proposal file, in image-id
    order; indices follow file order.  A proposal's descriptor is
    :func:`pool_box_feature` of its box on its image's FMAP, read once per
    image; a ``feature`` key in a row is not read.

    Every row of an image must carry the same label, and it must be the
    image's label in the manifest; every box must lie inside its image's
    ``size``.  A row or an image that disagrees raises
    :class:`ConfigInvalidError`, and an image the manifest does not list
    :class:`MissingInputError`, before any FMAP is read.  Rows are checked
    and grouped as the file streams; only their boxes are kept.
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
        boxes.append(row.typed("box", _box_inside(manifest.image(image_id).size)))
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


# --- record artifacts: one schema per file --------------------------------
# A schema maps each key of a file's rows, in the order its reader checks
# them, to the converter that checks the key's value.  It is the one
# statement of the format: each file's writer and reader go through
# _write_rows and _read_rows, and a record's fields follow the schema's
# key order.

REGION_SCHEMA = {
    "region_id": _text, "image_id": _text, "box": BBox.from_list,
    "cluster_id": _text, "cluster_rank": _integer,
}
SELECTION_SCHEMA = {
    "video_id": _text, "frame_idx": _integer, "box": BBox.from_list,
    "score": _real, "track_id": _integer,
}
TRANSFER_SCHEMA = {
    "image_id": _text, "box": BBox.from_list, "region_id": _text,
    "video_id": _text, "frame_idx": _integer, "sim": _real,
}
PSEUDO_GT_SCHEMA = {
    "image_id": _text, "box": BBox.from_list, "vote": _real,
    "support": _integer, "updated": _of(bool),
}
DETECTION_SCHEMA = {"image_id": _text, "box": BBox.from_list, "score": _real}


def _write_rows(path: str | Path, schema: Mapping[str, Callable], records: Iterable) -> None:
    """One row per record: each schema key with the record's attribute of
    that name (of a tuple record, its field in key order); a box is written
    as its corner list."""

    def row(record) -> dict:
        values = record if isinstance(record, tuple) else (getattr(record, k) for k in schema)
        return {k: v.as_list() if isinstance(v, BBox) else v for k, v in zip(schema, values)}

    write_jsonl(path, map(row, records))


def _read_rows(
    path: str | Path, schema: Mapping[str, Callable], make=lambda *v: v, key: tuple = ()
) -> list:
    """``make`` of each row's values, converted key by key in schema order.

    A row whose values at the schema keys ``key`` repeat an earlier row's
    is refused with :class:`ConfigInvalidError` naming its line and ``key``.
    """
    records, seen = [], set()
    for row in read_jsonl(path):
        values = {k: row.typed(k, read) for k, read in schema.items()}
        if key:
            ident = tuple(values[k] for k in key)
            if ident in seen:
                named = ", ".join(f"{k} {v!r}" for k, v in zip(key, ident))
                raise ConfigInvalidError(f"{row.where}: {named} repeats an earlier row")
            seen.add(ident)
        records.append(make(*values.values()))
    return records


def write_regions(path: str | Path, regions: Sequence[MinedRegion]) -> None:
    _write_rows(path, REGION_SCHEMA, regions)


def read_regions(path: str | Path) -> list[MinedRegion]:
    return _read_rows(path, REGION_SCHEMA, MinedRegion, key=("region_id",))


def write_selections(path: str | Path, selections: Sequence[FrameSelection]) -> None:
    _write_rows(path, SELECTION_SCHEMA, selections)


def read_selections(path: str | Path) -> dict[tuple[str, int], FrameSelection]:
    key = ("video_id", "frame_idx")
    selections = _read_rows(path, SELECTION_SCHEMA, FrameSelection, key=key)
    return {(s.video_id, s.frame_idx): s for s in selections}


def write_transfers(path: str | Path, transfers: Sequence[TransferredBox]) -> None:
    _write_rows(path, TRANSFER_SCHEMA, transfers)


def read_transfer_boxes(path: str | Path) -> dict[str, list[BBox]]:
    """Transferred boxes grouped per image (the voting stage's input); only
    the ``image_id`` and ``box`` keys are read."""
    out: dict[str, list[BBox]] = {}
    for image_id, box in _read_rows(path, {k: TRANSFER_SCHEMA[k] for k in ("image_id", "box")}):
        out.setdefault(image_id, []).append(box)
    return out


def write_pseudo_gts(path: str | Path, gts: Sequence[PseudoGT]) -> None:
    _write_rows(path, PSEUDO_GT_SCHEMA, gts)


def read_pseudo_gts(path: str | Path) -> dict[str, PseudoGT]:
    gts = _read_rows(path, PSEUDO_GT_SCHEMA, PseudoGT, key=("image_id",))
    return {g.image_id: g for g in gts}


def write_detections(path: str | Path, rows: Sequence[tuple[str, BBox, float]]) -> None:
    _write_rows(path, DETECTION_SCHEMA, rows)


def read_detections(path: str | Path) -> list[tuple[str, BBox, float]]:
    return _read_rows(path, DETECTION_SCHEMA)


# --- tracks.jsonl: {video_id, track_id, rank, frames: [{t, box}]} ----------


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
    """Each video's tracks in file order; a (video_id, track_id) pair that
    repeats is refused with :class:`ConfigInvalidError` naming its line."""
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
        tracks = by_video.setdefault(track.video_id, [])
        if any(t.track_id == track.track_id for t in tracks):
            raise ConfigInvalidError(
                f"{row.where}: video {track.video_id!r} has track {track.track_id} twice"
            )
        tracks.append(track)
    return by_video


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
