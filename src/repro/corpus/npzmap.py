"""Memory-mapped access to ``.npz`` members.

``np.load(..., mmap_mode="r")`` silently ignores the mmap request for
zip archives — every member still loads eagerly.  Serving workers want
the opposite: shard columns shared between threads (and, post-``fork``,
between processes) as read-only pages backed by the archive file, with
no per-worker copies.

:class:`MappedNpz` provides that for the archives this repo writes
(``np.savez`` — uncompressed, so every member is a ``ZIP_STORED`` blob
of a plain ``.npy`` file at a knowable byte offset).  Each member is
parsed just far enough (zip local header, then the npy header) to hand
back an ``np.memmap`` over the member's data bytes.  Members that can't
be mapped — compressed entries, object dtypes, unknown npy versions —
fall back to an eager in-memory load, so the handle is always usable.

The handle mimics the two ``NpzFile`` affordances the stores rely on:
``.files`` and ``__getitem__``.
"""

from __future__ import annotations

import zipfile
from pathlib import Path
from typing import Any

import numpy as np

__all__ = ["MappedNpz", "open_npz"]

#: Fixed part of a zip local file header (PK\x03\x04 ... name/extra lengths).
_LOCAL_HEADER_SIZE = 30


class MappedNpz:
    """A read-only, lazily memory-mapped view of an ``.npz`` archive.

    Member arrays are resolved on first access and cached; stored
    (uncompressed) members come back as ``np.memmap`` instances, anything
    unmappable loads eagerly.  Thread-safe for concurrent reads the same
    way plain numpy arrays are: worst case two threads resolve the same
    member once each and cache identical views.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        with zipfile.ZipFile(self.path) as archive:
            self._members = {
                info.filename[: -len(".npy")] if info.filename.endswith(".npy")
                else info.filename: info
                for info in archive.infolist()
            }
        self.files = list(self._members)
        self._cache: dict[str, np.ndarray] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._members

    def __getitem__(self, name: str) -> np.ndarray:
        cached = self._cache.get(name)
        if cached is None:
            info = self._members.get(name)
            if info is None:
                raise KeyError(name)
            cached = self._load(info)
            self._cache[name] = cached
        return cached

    # -- member resolution -----------------------------------------------------

    def _load(self, info: zipfile.ZipInfo) -> np.ndarray:
        mapped = None
        if info.compress_type == zipfile.ZIP_STORED:
            try:
                mapped = self._map_member(info)
            except (OSError, ValueError, zipfile.BadZipFile):
                mapped = None
        if mapped is not None:
            return mapped
        with zipfile.ZipFile(self.path) as archive:
            with archive.open(info) as stream:
                return np.lib.format.read_array(stream, allow_pickle=False)

    def _map_member(self, info: zipfile.ZipInfo) -> np.ndarray | None:
        """An ``np.memmap`` over one stored member, or ``None`` if unmappable."""
        with open(self.path, "rb") as stream:
            stream.seek(info.header_offset)
            header = stream.read(_LOCAL_HEADER_SIZE)
            if len(header) != _LOCAL_HEADER_SIZE or header[:4] != b"PK\x03\x04":
                return None
            # The central directory's name/extra lengths can differ from the
            # local header's (zip64 padding), so re-read them from the local
            # header itself.
            name_len = int.from_bytes(header[26:28], "little")
            extra_len = int.from_bytes(header[28:30], "little")
            stream.seek(info.header_offset + _LOCAL_HEADER_SIZE + name_len + extra_len)
            version = np.lib.format.read_magic(stream)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(stream)
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(stream)
            else:
                return None
            if dtype.hasobject:
                return None
            if any(dim == 0 for dim in shape):
                return np.empty(shape, dtype=dtype)
            return np.memmap(
                self.path,
                dtype=dtype,
                mode="r",
                offset=stream.tell(),
                shape=shape,
                order="F" if fortran else "C",
            )


def open_npz(path: str | Path, *, mmap: bool = False) -> Any:
    """Open an ``.npz`` archive eagerly (an ``NpzFile``) or memory-mapped.

    The eager handle owns its file and closes it on ``close()`` or
    collection, as ``np.load`` arranges; an archive that fails to parse
    closes the file before the error propagates (``np.load`` would hand
    it to the garbage collector).
    """
    if mmap:
        return MappedNpz(path)
    handle = open(path, "rb")
    try:
        return np.lib.npyio.NpzFile(handle, own_fid=True)
    except BaseException:
        handle.close()
        raise
