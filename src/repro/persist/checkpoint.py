"""Atomic, versioned, checksummed checkpoints on disk.

One checkpoint is one *directory* holding exactly two files:

``manifest.json``
    ``format_version``, library version, caller-supplied ``meta``
    (free-form JSON — step number, config digest, ...), the flat
    ``values`` map from :func:`repro.persist.state.flatten_state`, and
    an ``arrays`` index: per-array ``shape``/``dtype``/``sha256``.

``arrays.npz``
    Every ndarray leaf, stored uncompressed (``np.savez``), keyed by its
    state-tree path.  Trained weights, Adam moments and replay rings are
    float noise that deflate only ~30% (4.7 → 3.3 MB for the CLI run's
    checkpoint) at ~6x the write time, so checkpoints trade that disk
    for cheap saves and loads.  Checkpoints written deflated
    (``np.savez_compressed``) by earlier versions load unchanged: the
    format version, manifest and checksums do not depend on it.

Atomicity: both files are written into a ``.tmp-…`` sibling directory
which is then renamed over the target with :func:`os.replace` semantics
(an existing checkpoint at the target is moved aside first and removed
after the rename succeeds).  Readers therefore never observe a
half-written checkpoint — the directory either has the old complete
contents or the new complete contents.

Integrity: :func:`load_checkpoint` recomputes each array's SHA-256 and
compares it to the manifest (``verify=False`` skips this for speed);
any mismatch, missing member, or version skew raises
:class:`CheckpointError`.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import uuid
import zipfile
import zlib
from typing import Any, Mapping

import numpy as np

from repro.persist.state import flatten_state, unflatten_state

__all__ = [
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "ARRAYS_NAME",
    "CheckpointError",
    "TrainingInterrupted",
    "save_checkpoint",
    "load_checkpoint",
    "read_manifest",
]

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
ARRAYS_NAME = "arrays.npz"


class CheckpointError(RuntimeError):
    """A checkpoint is missing, corrupt, or incompatible."""


class TrainingInterrupted(RuntimeError):
    """Raised by the training loop when a scheduled stop point is hit.

    Carries the step of the checkpoint written at the stop, so callers
    (CLI, tests) know where a later ``--resume`` will pick up.
    """

    def __init__(self, step: int) -> None:
        super().__init__(f"training interrupted after checkpoint step {step}")
        self.step = step


def _sha256(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def save_checkpoint(
    path: str,
    state: Mapping[str, Any],
    meta: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Write *state* (a state tree) atomically to directory *path*.

    Returns the manifest dict that was written.
    """
    arrays, values = flatten_state(state)
    manifest = {
        "format_version": FORMAT_VERSION,
        "library": "repro",
        "meta": dict(meta or {}),
        "values": values,
        "arrays": {
            key: {
                "shape": list(arr.shape),
                "dtype": str(arr.dtype),
                "sha256": _sha256(arr),
            }
            for key, arr in arrays.items()
        },
    }

    path = os.path.abspath(path)
    parent = os.path.dirname(path)
    os.makedirs(parent, exist_ok=True)
    tmp = os.path.join(parent, f".tmp-{os.path.basename(path)}-{uuid.uuid4().hex[:8]}")
    os.makedirs(tmp)
    try:
        with open(os.path.join(tmp, MANIFEST_NAME), "w", encoding="utf-8") as fh:
            # allow_nan stays on: history rows may legitimately carry NaN
            # (e.g. reward fraction on an empty day) and must round-trip
            # as NaN, not null, for bit-identical resume.
            json.dump(manifest, fh, sort_keys=True, indent=2)
            fh.write("\n")
        np.savez(os.path.join(tmp, ARRAYS_NAME), **arrays)
        if os.path.isdir(path):
            # Directory renames cannot atomically replace a non-empty
            # target; move the old checkpoint aside first so a reader
            # racing us still sees one complete version or the other.
            aside = path + f".old-{uuid.uuid4().hex[:8]}"
            os.replace(path, aside)
            os.replace(tmp, path)
            shutil.rmtree(aside, ignore_errors=True)
        else:
            os.replace(tmp, path)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return manifest


def read_manifest(path: str) -> dict[str, Any]:
    """Load and version-check just the manifest of checkpoint *path*."""
    manifest_path = os.path.join(path, MANIFEST_NAME)
    if not os.path.isfile(manifest_path):
        raise CheckpointError(f"no checkpoint manifest at {manifest_path}")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise CheckpointError(f"unreadable manifest at {manifest_path}: {exc}")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format version {version!r} unsupported "
            f"(this library reads version {FORMAT_VERSION})"
        )
    return manifest


def load_checkpoint(path: str, verify: bool = True) -> tuple[dict[str, Any], dict[str, Any]]:
    """Load checkpoint directory *path*; returns ``(state, manifest)``.

    With ``verify=True`` every array's SHA-256 must match the manifest.
    """
    manifest = read_manifest(path)
    arrays_path = os.path.join(path, ARRAYS_NAME)
    expected = manifest.get("arrays", {})
    arrays: dict[str, np.ndarray] = {}
    if expected:
        if not os.path.isfile(arrays_path):
            raise CheckpointError(f"checkpoint is missing {ARRAYS_NAME} at {path}")
        try:
            with np.load(arrays_path) as npz:
                members = set(npz.files)
                missing = sorted(set(expected) - members)
                if missing:
                    raise CheckpointError(
                        f"checkpoint arrays missing members: {missing[:5]}"
                    )
                for key in expected:
                    arrays[key] = npz[key]
        except (zipfile.BadZipFile, zlib.error, ValueError, EOFError) as exc:
            # A damaged member fails the zip CRC (or its npy header)
            # before the checksum pass gets to see it.
            raise CheckpointError(
                f"unreadable {ARRAYS_NAME} in {path} (checkpoint is corrupt): {exc}"
            ) from exc
    if verify:
        for key, info in expected.items():
            digest = _sha256(arrays[key])
            if digest != info.get("sha256"):
                raise CheckpointError(
                    f"checksum mismatch for array {key!r} in {path} "
                    "(checkpoint is corrupt)"
                )
    state = unflatten_state(arrays, manifest.get("values", {}))
    return state, manifest
