"""Damaged shard and tables files: both stores fail with a named error.

Shards and ``tables.npz`` are read from disk, so their bytes are
untrusted input just like the manifest.  A truncated archive, bytes
that are not an archive at all, or (on the eager path) a member whose
zip CRC no longer matches must each surface as a :class:`DatasetError`
naming the store directory and the damaged file, in both open modes —
never a raw ``zipfile.BadZipFile``, ``EOFError`` or ``ValueError``.
A flipped byte under ``mmap=True`` is not caught: the mapped path skips
the CRC, and catching it needs per-member checksums in the manifest.
"""

from __future__ import annotations

import gc
import warnings
import zipfile

import pytest

from repro.errors import DatasetError
from tests.corpus.test_manifest_validation import STORES


@pytest.fixture(params=sorted(STORES))
def store(request, tmp_path):
    return STORES[request.param](tmp_path / "store")


@pytest.fixture(params=[False, True], ids=["eager", "mmap"])
def mmap(request) -> bool:
    return request.param


def first_shard(store) -> str:
    return store.manifest["shards"][0]["file"]


def truncate(path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def flip_member_byte(path) -> None:
    """Flip the last data byte of the archive's first member."""
    with zipfile.ZipFile(path) as archive:
        info = archive.infolist()[0]
    data = bytearray(path.read_bytes())
    local = info.header_offset
    name_len = int.from_bytes(data[local + 26 : local + 28], "little")
    extra_len = int.from_bytes(data[local + 28 : local + 30], "little")
    last = local + 30 + name_len + extra_len + info.compress_size - 1
    data[last] ^= 0xFF
    path.write_bytes(bytes(data))


def assert_named_error(store, mmap: bool, file_name: str) -> None:
    reopened = type(store)(store.path, mmap=mmap)
    with pytest.raises(DatasetError) as excinfo:
        reopened.content_digest()
    message = str(excinfo.value)
    assert str(store.path) in message
    assert file_name in message


def test_truncated_shard(store, mmap):
    name = first_shard(store)
    truncate(store.path / name)
    assert_named_error(store, mmap, name)


def test_truncated_tables(store, mmap):
    truncate(store.path / "tables.npz")
    assert_named_error(store, mmap, "tables.npz")


def test_non_zip_shard(store, mmap):
    name = first_shard(store)
    (store.path / name).write_bytes(b"these bytes are not a zip archive\n" * 8)
    assert_named_error(store, mmap, name)


@pytest.mark.parametrize("damaged", ["shard", "tables"])
def test_failed_eager_open_closes_its_file(store, damaged):
    name = first_shard(store) if damaged == "shard" else "tables.npz"
    truncate(store.path / name)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DatasetError):
            type(store)(store.path, mmap=False).content_digest()
        gc.collect()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaks, [str(w.message) for w in leaks]


def test_eager_read_fails_the_member_crc(store):
    name = first_shard(store)
    flip_member_byte(store.path / name)
    assert_named_error(store, False, name)


def test_undamaged_store_reads_in_both_modes(store, mmap):
    reopened = type(store)(store.path, mmap=mmap)
    assert reopened.content_digest() == store.content_digest()
