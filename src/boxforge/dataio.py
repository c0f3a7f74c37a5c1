"""File formats shared by the pipeline stages.

Everything row-oriented is JSON-lines with one object per line; boxes are
always 4-arrays ``[x_min, y_min, x_max, y_max]``.  A record file's keys are
stated once, in its schema table (``REGION_SCHEMA``, ...).  Aggregate documents
(manifest, models, metrics) are sorted-key JSON so reruns are diffable.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, TextIO

import numpy as np

from .atomic import write_atomic
from .detector import BoxRegressor, LinearModel
from .errors import ConfigInvalidError, DegenerateBoxError, EmptyDatasetError, MissingInputError
from .featmap import pool_box_feature, read_fmap
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
    """A parsed JSON object, made from its ``(key, value)`` pairs in file
    order, whose repeated keys, missing keys and values of the wrong type
    raise :class:`ConfigInvalidError` naming where it was read."""

    __slots__ = ("where",)

    def __init__(self, where: str, pairs: list[tuple[str, object]]):
        super().__init__(pairs)
        self.where = where
        if len(self) < len(pairs):  # a later value would silently win
            keys = [key for key, _ in pairs]
            repeated = next(key for key in keys if keys.count(key) > 1)
            raise ConfigInvalidError(f"{where}: repeated key {repeated!r}")

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


def _box(value) -> BBox:
    """``value``, a list of four numbers each passing :func:`_real`, as a
    box; a coordinate such as ``"1"`` or ``true`` is refused."""
    if not isinstance(value, list) or len(value) != 4:
        raise TypeError(f"expected a list of 4 numbers, got {value!r}")
    return BBox(*map(_real, value))


def _positive(value) -> float:
    value = _real(value)
    if not value > 0:
        raise ValueError(f"expected a positive number, got {value!r}")
    return value


def _size(value) -> tuple[float, float]:
    width, height = value
    return _positive(width), _positive(height)


def _names(value) -> tuple[str, ...]:
    if not isinstance(value, list) or not value:
        raise ValueError(f"expected a list of at least one name, got {value!r}")
    return tuple(_text(n) for n in value)


def _one_name(value) -> str:
    names = _names(value)
    if len(names) > 1:
        raise ValueError(f"expected one category per run, got {len(names)}")
    return names[0]


def _path(value) -> Path:
    if "\0" in _text(value):  # no file name holds a NUL byte
        raise ValueError(f"expected a path without NUL bytes, got {value!r}")
    return Path(value)


def _paths(value) -> tuple[Path, ...]:
    return tuple(map(_path, _names(value)))


def _file_name(value) -> str:
    """A plain file name, such as an image id, which names its heatmap file."""
    if _text(value) in ("", ".", "..") or "/" in value or "\0" in value:
        raise ValueError(f"expected a plain file name, got {value!r}")
    return value


def _objects(value) -> list[_Row]:
    if not isinstance(value, list) or not all(isinstance(v, _Row) for v in value):
        raise TypeError("expected a list of objects")
    return value


def _files(value) -> dict[str, Path]:
    if not isinstance(value, _Row):
        raise TypeError("expected an object of file names")
    return {key: _path(name) for key, name in value.items()}


def _object(value, where: str) -> _Row:
    if not isinstance(value, _Row):
        raise ConfigInvalidError(f"{where}: expected a JSON object")
    return value


def load_json(path: str | Path) -> _Row:
    p = Path(path)
    if not p.exists():
        raise MissingInputError(f"missing input file: {p}")
    try:
        doc = json.loads(p.read_text("utf-8"), object_pairs_hook=lambda pairs: _Row(str(p), pairs))
    except UnicodeDecodeError as exc:
        raise ConfigInvalidError(f"{p}: not UTF-8 text ({exc})") from exc
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
    a row that is not UTF-8 text or not a JSON object raises
    :class:`ConfigInvalidError` naming its line."""
    p = Path(path)
    if not p.exists():
        raise MissingInputError(f"missing input file: {p}")
    where = str(p)
    decoder = json.JSONDecoder(object_pairs_hook=lambda pairs: _Row(where, pairs))
    with open(p, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{p} line {lineno}"
            try:
                row = decoder.decode(line.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise ConfigInvalidError(f"{where}: not UTF-8 text ({exc})") from exc
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
class VideoFrames(Sequence[np.ndarray]):
    """A video's frame maps by frame number; indexing a frame reads its
    FMAP, again on every access, so a stage reads what it samples."""

    dataset: Dataset
    paths: tuple[Path, ...]

    def __len__(self) -> int:
        return len(self.paths)

    def __getitem__(self, frame_idx: int) -> np.ndarray:
        return self.dataset._read_fmap(self.paths[frame_idx])


class Dataset:
    """A dataset opened for one run, as :func:`load_manifest` reads it.

    It holds manifest.json's table of contents: ``root``, the manifest's
    directory; ``cell_stride``; ``category``, the one name of its
    ``categories`` list; ``entries``, image id -> :class:`ImageEntry`, and
    ``videos``, video id -> frame paths, both in manifest order; and
    ``files``, key -> file name under ``root``.  On top of that it keeps the
    proposals (each image's corner rows and pooled descriptors, 32 + 16·C
    bytes a proposal) and tracks, each read on first use and then kept for
    every later stage, and the results stages share through :meth:`memo`.

    A map is the read-only (H, W, C) float32 array :func:`read_fmap`
    returns.  Maps are not kept: :func:`read_proposals` reads each image's
    map once to pool its proposals, and a stage that needs a map again
    (query windows, pseudo-GT and detection descriptors, video frames)
    reads it from disk.  Keeping them would not outgrow memory: an image's
    kept descriptors take 16·N·C bytes (N proposals, 2·C float64 each)
    against 4·H·W·C for its map.  Every map read must have the channel count of the
    first one read; a map with another count is refused with
    :class:`ConfigInvalidError` naming both files.
    """

    def __init__(
        self, root: Path, cell_stride: float, category: str, files: dict[str, Path],
        entries: dict[str, ImageEntry], videos: dict[str, tuple[Path, ...]],
    ):
        self.root = root
        self.cell_stride = cell_stride
        self.category = category
        self.files = files
        self.entries = entries
        self.videos = videos
        self._first_fmap: Optional[tuple[Path, int]] = None  # (path, channels) of the first read
        self._memo: dict = {}

    def image(self, image_id: str) -> ImageEntry:
        entry = self.entries.get(image_id)
        if entry is None:
            raise MissingInputError(f"image {image_id} not in manifest")
        return entry

    def check_listed(self, path: Path, image_ids: Iterable[str]) -> None:
        """Refuse the ids read from ``path`` when one names an image the
        manifest does not list, with :class:`ConfigInvalidError` naming the
        file and the image."""
        unknown = sorted(set(image_ids).difference(self.entries))
        if unknown:
            raise ConfigInvalidError(f"{path}: image {unknown[0]!r} is not in the manifest")

    def path(self, key: str) -> Path:
        if key not in self.files:
            raise MissingInputError(f"manifest lists no {key!r} file")
        return self.root / self.files[key]

    def _read_fmap(self, relpath: Path) -> np.ndarray:
        path = self.root / relpath
        fmap = read_fmap(path)
        if self._first_fmap is None:
            self._first_fmap = (path, fmap.shape[2])
        first, channels = self._first_fmap
        if fmap.shape[2] != channels:
            raise ConfigInvalidError(
                f"{path}: {fmap.shape[2]} channels, but {first} has {channels}"
            )
        return fmap

    def load_image_fmap(self, image_id: str) -> np.ndarray:
        return self._read_fmap(self.image(image_id).fmap_path)

    def load_video_frames(self, video_id: str) -> VideoFrames:
        frame_paths = self.videos.get(video_id)
        if frame_paths is None:
            raise MissingInputError(f"video {video_id} not in manifest")
        return VideoFrames(self, frame_paths)

    @cached_property
    def images(self) -> dict[str, ImageProposals]:
        return read_proposals(self)

    @cached_property
    def tracks(self) -> dict[str, list[Track]]:
        """Each manifest video's tracks; a track of a video the manifest
        does not list is refused."""
        path = self.path("tracks")
        tracks = read_tracks(path)
        unknown = sorted(set(tracks) - set(self.videos))
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


def _by_id(pairs: Iterable[tuple[str, object]], kind: str) -> dict:
    """id -> entry of ``(id, entry)`` pairs; a repeated id is refused rather
    than shadowed."""
    by_id = {}
    for key, entry in pairs:
        if key in by_id:
            raise ConfigInvalidError(f"manifest lists {kind} id {key!r} twice")
        by_id[key] = entry
    return by_id


def load_manifest(path: str | Path) -> Dataset:
    """The dataset that the manifest.json at ``path`` describes."""
    p = Path(path)
    doc = load_json(p)
    if "format_version" in doc and doc.typed("format_version", _integer) != MANIFEST_VERSION:
        raise ConfigInvalidError(
            f"{p}: bad value for key 'format_version' (expected {MANIFEST_VERSION})"
        )
    entries = tuple(
        ImageEntry(
            image_id=e.typed("id", _file_name),
            label=e.typed("label", _text),
            fmap_path=e.typed("fmap", _path),
            size=e.typed("size", _size),
        )
        for e in doc.typed("images", _objects)
    )
    videos = tuple(
        (e.typed("id", _text), e.typed("frames", _paths)) for e in doc.typed("videos", _objects)
    )
    return Dataset(
        root=p.parent,
        cell_stride=doc.typed("cell_stride", _positive),
        category=doc.typed("categories", _one_name),
        files=doc.typed("files", _files) if "files" in doc else {},
        entries=_by_id(((e.image_id, e) for e in entries), "image"),
        videos=_by_id(videos, "video"),
    )


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
        box = _box(coords)
        if box.x_min < 0 or box.y_min < 0 or box.x_max > width or box.y_max > height:
            raise ValueError(f"{box.as_list()} lies outside the {width:g}x{height:g} image")
        return box

    return check


def read_proposals(ds: Dataset) -> dict[str, ImageProposals]:
    """Each image's proposals in the dataset's proposal file, in image-id
    order; indices follow file order.  A proposal's descriptor is its row
    of :func:`pool_box_feature` over the image's corner rows, one call on
    the image's FMAP, read once; a ``feature`` key in a row is not read.

    Every row's label must be its image's label in the manifest, and every
    box must lie inside its image's ``size``.  A row that disagrees raises
    :class:`ConfigInvalidError` naming its file and line, an image the
    manifest does not list :class:`MissingInputError`, and a file without
    rows :class:`EmptyDatasetError`, before any FMAP is read.  Rows are
    checked and grouped as the file streams; only their corners are kept,
    32 B a box.
    """
    path = ds.path("proposals")
    grouped: dict[str, array] = {}
    for row in read_jsonl(path):
        image_id, label = row.typed("image_id", _text), row.typed("label", _text)
        entry = ds.image(image_id)
        if label != entry.label:
            raise ConfigInvalidError(
                f"{row.where} (image {image_id}): label {label!r}, "
                f"but {entry.label!r} in the manifest"
            )
        corners = grouped.setdefault(image_id, array("d"))
        corners.extend(row.typed("box", _box_inside(entry.size)).as_list())
    if not grouped:
        raise EmptyDatasetError(f"{path}: no proposals")
    images = {}
    for image_id in sorted(grouped):
        coords = np.array(grouped[image_id]).reshape(-1, 4)
        features = pool_box_feature(ds.load_image_fmap(image_id), coords, ds.cell_stride)
        images[image_id] = ImageProposals(ds.image(image_id).label, coords, features)
    return images


# --- record artifacts: one schema per file --------------------------------
# A schema maps each key of a file's rows, in the order its reader checks
# them, to the converter that checks the key's value.  It is the one
# statement of the format: each file's writer and reader go through
# _write_rows and _read_rows, and a record's fields follow the schema's
# key order.

REGION_SCHEMA = {
    "region_id": _text, "image_id": _text, "box": _box,
    "cluster_id": _text, "cluster_rank": _integer,
}
SELECTION_SCHEMA = {
    "video_id": _text, "frame_idx": _integer, "box": _box,
    "score": _real, "track_id": _integer,
}
TRANSFER_SCHEMA = {
    "image_id": _text, "box": _box, "region_id": _text,
    "video_id": _text, "frame_idx": _integer, "sim": _real,
}
PSEUDO_GT_SCHEMA = {
    "image_id": _text, "box": _box, "vote": _real,
    "support": _integer, "updated": _of(bool),
}
DETECTION_SCHEMA = {"image_id": _text, "box": _box, "score": _real}


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


def read_transfer_corners(path: str | Path) -> dict[str, np.ndarray]:
    """Each image's transferred boxes (the voting stage's input) as (N, 4)
    float64 corner rows, in file order; only the ``image_id`` and ``box``
    keys are read."""
    grouped: dict[str, array] = {}
    for row in read_jsonl(path):
        image_id = row.typed("image_id", _text)
        grouped.setdefault(image_id, array("d")).extend(row.typed("box", _box).as_list())
    return {image_id: np.frombuffer(rows).reshape(-1, 4) for image_id, rows in grouped.items()}


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
    """Each video's tracks in file order; a track whose frame indices do
    not increase, or a (video_id, track_id) pair that repeats, is refused
    with :class:`ConfigInvalidError` naming its line."""
    by_video: dict[str, list[Track]] = {}
    for row in read_jsonl(path):
        fields = dict(
            video_id=row.typed("video_id", _text),
            track_id=row.typed("track_id", _integer),
            rank=row.typed("rank", _integer),
            frames=tuple(
                (f.typed("t", _integer), f.typed("box", _box))
                for f in row.typed("frames", _objects)
            ),
        )
        try:
            track = Track(**fields)
        except ConfigInvalidError as exc:
            raise ConfigInvalidError(f"{row.where}: {exc}") from None
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


def _boxes(value) -> list[BBox]:
    if not isinstance(value, list) or not value:
        raise ValueError(f"expected a list of at least one box, got {value!r}")
    return [_box(b) for b in value]


def read_gt(path: str | Path) -> dict[str, dict[str, list[BBox]]]:
    """category -> image_id -> GT boxes; a row without boxes is refused."""
    out: dict[str, dict[str, list[BBox]]] = {}
    for row in read_jsonl(path):
        out.setdefault(row.typed("category", _text), {}).setdefault(
            row.typed("image_id", _text), []
        ).extend(row.typed("boxes", _boxes))
    return out


# --- model / regressor JSON --------------------------------------------------


def write_model(path: str | Path, model: LinearModel, category: str) -> None:
    dump_json(
        {
            "category_id": category,
            "dim": int(model.weights.shape[0]),
            "weights": [float(w) for w in model.weights],
            "bias": float(model.bias),
        },
        path,
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
