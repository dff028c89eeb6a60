"""Zero-copy mmap-able on-disk format for compiled provenance artifacts.

The paper's motivating workflow is *compress provenance once on a strong
machine, then answer what-if queries cheaply elsewhere*.  The JSON formats in
:mod:`repro.provenance.serialization` round-trip the symbolic polynomials,
but every consumer then re-pays compilation (one pass over every monomial)
— and PR 4's process pool re-pickled the whole compiled set into every
worker.  This module persists the *compiled* form instead:

* one binary file holding the width-group arrays of a numeric compiled set
  (:class:`~repro.provenance.backends.numeric.CompiledNumericSet`: real,
  tropical or bool) **plus** the pre-built
  :class:`~repro.provenance.incidence.VariableIncidence` CSR arrays
  (``ptr``/``positions``/``exponents``) of its sparse delta index;
* :func:`write_store` lays them out as 64-byte-aligned raw blocks behind a
  versioned JSON header (PR 3's version/kind envelope, written through the
  same atomic temp-file + ``os.replace`` machinery);
* :func:`open_store` maps the file read-only with one :func:`numpy.memmap`
  and reconstructs the compiled set with its arrays *viewing* the mapped
  pages — no parse, no copy, and every process opening the same store
  shares one page-cache copy of the data.

File layout::

    8 bytes   magic ``b"COBRASTO"``
    4 bytes   little-endian uint32: header length in bytes
    N bytes   UTF-8 JSON header — the version/kind envelope around backend
              name, source fingerprint, keys, variables, group metadata and
              the block directory {name: {dtype, shape, offset}}
    padding   to the next 64-byte boundary
    blocks    raw little-endian arrays, each 64-byte aligned

Offsets in the block directory are relative to the (alignment-rounded) end
of the header, so the header's own length never feeds back into it.

Opened stores are cached per ``(absolute path, mtime_ns, size)`` in a
process-wide :class:`~repro.provenance.valuation.FingerprintCache` reporting
``store_cache.hits``/``store_cache.misses`` into the metrics registry;
``store.build``/``store.open`` spans and ``store.builds``/``store.opens``
counters cover the two operations.

Integrity (format version 2): every block directory entry carries a CRC32
of its raw bytes, verified when the block is first mapped — and since
opening reconstructs the compiled set from *every* block, a corrupt store
fails at open time, before any kernel touches bad data.  Version-1 stores
(no checksums) remain readable.  :func:`quarantine_store` renames a store
that failed verification to ``<path>.quarantined`` so the next open does
not trip over it again; callers (the evaluator, sessions) then recompile
from provenance.  The ``store.open``/``store.read_block`` fault-injection
sites let the chaos suite drive these paths deterministically.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Type

import numpy as np

if TYPE_CHECKING:
    from repro.provenance.valuation import FingerprintCache

from repro.exceptions import SerializationError
from repro.obs.metrics import get_registry
from repro.obs.tracer import trace
from repro.provenance.backends.numeric import (
    CompiledNumericSet,
    CompiledProvenanceSet,
    _CompiledBooleanSet,
    _CompiledTropicalSet,
    _SegmentGroup,
)
from repro.provenance.incidence import VariableIncidence
from repro.provenance.serialization import PathLike, _atomic_write_bytes
from repro.resilience import fault_point, record_degradation

#: Leading magic of every compiled-store file.
MAGIC = b"COBRASTO"

#: The ``kind`` stamped into the store's version envelope.
STORE_KIND = "compiled_store"

#: The store format version written by this build.  Version 2 added
#: per-block CRC32 checksums to the block directory.
STORE_VERSION = 2

#: Store format versions this build reads.  Version-1 stores simply lack
#: block checksums; their data layout is identical.
SUPPORTED_STORE_VERSIONS = (1, 2)

#: Every raw block (and the data section itself) starts on this boundary,
#: so mapped views are aligned for any vectorised access.
ALIGNMENT = 64

_HEADER_LEN_STRUCT = struct.Struct("<I")

#: On-disk dtypes: indices are always written as little-endian int64 (the
#: platform ``intp`` of every 64-bit host), values as little-endian float64.
_INDEX_DTYPE = "<i8"
_FLOAT_DTYPE = "<f8"


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _compiled_blocks(compiled: Any) -> List[Tuple[str, np.ndarray]]:
    """The named arrays of ``compiled`` in their canonical on-disk order.

    Includes the sparse delta index (built here if the set never evaluated
    deltas) so loaders get ``evaluate_deltas`` readiness for free.
    """
    blocks: List[Tuple[str, np.ndarray]] = [
        ("constant", np.ascontiguousarray(compiled._constant, dtype=_FLOAT_DTYPE))
    ]
    delta_index = compiled._delta_groups()
    for i, (group, (incidence, monomial_rows, _ends)) in enumerate(
        zip(compiled._groups, delta_index)
    ):
        blocks.extend(
            (
                (f"g{i}.coefficients", np.ascontiguousarray(group.coefficients, dtype=_FLOAT_DTYPE)),
                (f"g{i}.indices", np.ascontiguousarray(group.indices, dtype=_INDEX_DTYPE)),
                (f"g{i}.exponents", np.ascontiguousarray(group.exponents, dtype=_FLOAT_DTYPE)),
                (f"g{i}.segment_starts", np.ascontiguousarray(group.segment_starts, dtype=_INDEX_DTYPE)),
                (f"g{i}.segment_rows", np.ascontiguousarray(group.segment_rows, dtype=_INDEX_DTYPE)),
                (f"g{i}.inc.ptr", np.ascontiguousarray(incidence.ptr, dtype=_INDEX_DTYPE)),
                (f"g{i}.inc.positions", np.ascontiguousarray(incidence.positions, dtype=_INDEX_DTYPE)),
                (f"g{i}.inc.exponents", np.ascontiguousarray(incidence.exponents, dtype=_FLOAT_DTYPE)),
                (f"g{i}.monomial_rows", np.ascontiguousarray(monomial_rows, dtype=_INDEX_DTYPE)),
            )
        )
    return blocks


def write_store(compiled: Any, path: PathLike) -> str:
    """Persist ``compiled`` as a mmap-able store at ``path`` (atomically).

    ``compiled`` must be a numeric compiled set
    (:class:`~repro.provenance.backends.numeric.CompiledNumericSet`); its
    ``backend_name`` attribute names the semiring.
    Returns ``path`` (as a string) for chaining.
    """
    backend_name = getattr(compiled, "backend_name", None)
    if not backend_name:
        raise SerializationError(
            f"{type(compiled).__name__} has no compiled-store form "
            "(only the numeric real/tropical/bool compiled sets do)"
        )
    with trace(
        "store.build", backend=backend_name, monomials=compiled.size()
    ) as span:
        blocks = _compiled_blocks(compiled)
        directory: Dict[str, Dict[str, object]] = {}
        cursor = 0
        for name, array in blocks:
            cursor = _align(cursor)
            directory[name] = {
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": cursor,
                "crc32": zlib.crc32(array.tobytes()),
            }
            cursor += array.nbytes

        # Two header fields differ by backend, frozen by format version 2:
        # real stores flag each group's higher powers and record
        # ``num_constants`` as 0; the other backends record the constant
        # count and no flags.  Readers need neither (size() counts the
        # constant block, the flag is recomputed when absent); they are
        # kept so every backend's stores stay byte-identical across builds.
        real = backend_name == "real"
        groups_meta = []
        monomials = 0
        for group in compiled._groups:
            meta: Dict[str, object] = {"monomials": len(group.coefficients)}
            if real:
                meta["has_higher_powers"] = group.has_higher_powers
            groups_meta.append(meta)
            monomials += len(group.coefficients)

        payload = {
            "backend": backend_name,
            "fingerprint": compiled.source_fingerprint,
            "keys": [list(key) for key in compiled.keys],
            "variables": list(compiled.variables),
            "num_constants": 0 if real else compiled.size() - monomials,
            "groups": groups_meta,
            "blocks": directory,
        }
        header = json.dumps(
            {"version": STORE_VERSION, "kind": STORE_KIND, "store": payload}
        ).encode("utf-8")

        prefix_len = len(MAGIC) + _HEADER_LEN_STRUCT.size + len(header)
        data_start = _align(prefix_len)
        buffer = bytearray(data_start + cursor)
        buffer[: len(MAGIC)] = MAGIC
        _HEADER_LEN_STRUCT.pack_into(buffer, len(MAGIC), len(header))
        buffer[len(MAGIC) + _HEADER_LEN_STRUCT.size : prefix_len] = header
        for name, array in blocks:
            start = data_start + int(directory[name]["offset"])  # type: ignore[arg-type]
            buffer[start : start + array.nbytes] = array.tobytes()

        _atomic_write_bytes(path, bytes(buffer))
        span.set("bytes", len(buffer))
    get_registry().inc("store.builds")
    return os.fspath(path)


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


def read_store_header(path: PathLike) -> Dict[str, object]:
    """The store's header payload (backend, fingerprint, keys, directory).

    Validates the magic and the version/kind envelope without touching any
    data block — cheap enough to probe a store before adopting it.

    Raises
    ------
    SerializationError
        On a bad magic, a truncated file, malformed header JSON, a version
        mismatch or the wrong envelope kind.
    """
    with open(path, "rb") as handle:
        prefix = handle.read(len(MAGIC) + _HEADER_LEN_STRUCT.size)
        if len(prefix) < len(MAGIC) + _HEADER_LEN_STRUCT.size:
            raise SerializationError(f"{path}: truncated compiled store")
        if prefix[: len(MAGIC)] != MAGIC:
            raise SerializationError(
                f"{path}: not a COBRA compiled store (bad magic)"
            )
        (header_len,) = _HEADER_LEN_STRUCT.unpack_from(prefix, len(MAGIC))
        header = handle.read(header_len)
    if len(header) < header_len:
        raise SerializationError(f"{path}: truncated compiled-store header")
    try:
        document = json.loads(header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(
            f"{path}: corrupted compiled-store header ({exc})"
        ) from exc
    # Unlike the JSON formats there is no legacy unversioned store: the
    # envelope is mandatory, so a header that is not one is corruption.
    if not (
        isinstance(document, dict)
        and "version" in document
        and isinstance(document.get("kind"), str)
    ):
        raise SerializationError(
            f"{path}: compiled-store header is missing its version envelope"
        )
    version = document["version"]
    if version not in SUPPORTED_STORE_VERSIONS:
        raise SerializationError(
            f"{path}: unsupported format version {version!r} (this build "
            f"reads versions {', '.join(map(str, SUPPORTED_STORE_VERSIONS))})"
        )
    if document.get("kind") != STORE_KIND:
        raise SerializationError(
            f"{path}: expected a {STORE_KIND!r} file, "
            f"found kind={document.get('kind')!r}"
        )
    if "store" not in document:
        raise SerializationError(
            f"{path}: versioned {STORE_KIND!r} file is missing its "
            "'store' payload"
        )
    payload = document["store"]
    if not isinstance(payload, dict) or "blocks" not in payload:
        raise SerializationError(
            f"{path}: compiled-store header has no block directory"
        )
    return payload


def _data_start(path: PathLike) -> int:
    with open(path, "rb") as handle:
        prefix = handle.read(len(MAGIC) + _HEADER_LEN_STRUCT.size)
        (header_len,) = _HEADER_LEN_STRUCT.unpack_from(prefix, len(MAGIC))
    return _align(len(MAGIC) + _HEADER_LEN_STRUCT.size + header_len)


class _BlockReader:
    """Zero-copy views into one mapped store file.

    Version-2 directory entries carry a ``crc32`` of the block's raw
    bytes; the first view of each block verifies it (verified names are
    memoised, so steady-state reads stay zero-cost).  Opening a store
    touches every block, which is what makes "verified on open" true.
    """

    def __init__(
        self, path: str, directory: Dict[str, Dict], data_start: int
    ) -> None:
        self._path = path
        self._raw = np.memmap(path, dtype=np.uint8, mode="r")
        self._directory = directory
        self._data_start = data_start
        self._verified: set = set()

    def __call__(self, name: str) -> np.ndarray:
        fault_point("store.read_block", path=self._path, block=name)
        try:
            meta = self._directory[name]
        except KeyError:
            raise SerializationError(
                f"{self._path}: compiled store is missing block {name!r}"
            ) from None
        dtype = np.dtype(meta["dtype"])
        shape = tuple(int(n) for n in meta["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = self._data_start + int(meta["offset"])
        end = start + dtype.itemsize * count
        if end > self._raw.size:
            raise SerializationError(
                f"{self._path}: truncated compiled store (block {name!r} "
                f"ends at byte {end}, file has {self._raw.size})"
            )
        expected_crc = meta.get("crc32")
        if expected_crc is not None and name not in self._verified:
            actual_crc = zlib.crc32(self._raw[start:end])
            if actual_crc != int(expected_crc):
                raise SerializationError(
                    f"{self._path}: block {name!r} failed its CRC32 check "
                    f"(expected {int(expected_crc):#010x}, got "
                    f"{actual_crc:#010x}) — the store is corrupt"
                )
            self._verified.add(name)
        view = self._raw[start:end].view(dtype).reshape(shape)
        if view.flags.writeable:
            # mode="r" maps must stay read-only end to end: a writeable view
            # would let kernel code corrupt the shared page-cache copy every
            # other process sees.
            raise SerializationError(
                f"{self._path}: block {name!r} mapped writeable — "
                "refusing to hand out a mutable view of a shared store"
            )
        return view


def _as_key(item: object) -> object:
    return tuple(_as_key(part) for part in item) if isinstance(item, list) else item


#: The compiled-set class each store ``backend`` name reopens as.
_STORE_CLASSES: Dict[str, Type[CompiledNumericSet]] = {
    cls.backend_name: cls
    for cls in (CompiledProvenanceSet, _CompiledTropicalSet, _CompiledBooleanSet)
}


def _open_store(path: str) -> CompiledNumericSet:
    fault_point("store.open", path=path)
    header = read_store_header(path)
    backend_name = header.get("backend")
    if backend_name not in _STORE_CLASSES:
        raise SerializationError(
            f"{path}: unknown compiled-store backend {backend_name!r} "
            f"(this build reads {sorted(_STORE_CLASSES)})"
        )
    set_class = _STORE_CLASSES[backend_name]
    block = _BlockReader(path, header["blocks"], _data_start(path))

    compiled = set_class.__new__(set_class)
    compiled._keys = tuple(_as_key(key) for key in header["keys"])
    compiled._variables = tuple(header["variables"])
    compiled._index = {name: i for i, name in enumerate(compiled._variables)}
    compiled._constant = block("constant")
    compiled._fingerprint = header.get("fingerprint")
    compiled._store_path = os.path.abspath(path)

    groups = []
    delta_index = []
    for i, meta in enumerate(header.get("groups", [])):
        group = _SegmentGroup(
            block(f"g{i}.coefficients"),
            block(f"g{i}.indices"),
            block(f"g{i}.exponents"),
            block(f"g{i}.segment_starts"),
            block(f"g{i}.segment_rows"),
            meta.get("has_higher_powers"),
        )
        groups.append(group)
        incidence = VariableIncidence(
            block(f"g{i}.inc.ptr"),
            block(f"g{i}.inc.positions"),
            block(f"g{i}.inc.exponents"),
        )
        delta_index.append(
            (incidence, block(f"g{i}.monomial_rows"), group.segment_ends())
        )
    compiled._groups = groups
    compiled._delta_index = tuple(delta_index)
    compiled._delta_baseline = []
    return compiled


# ---------------------------------------------------------------------------
# The open-store cache
# ---------------------------------------------------------------------------

_STORE_CACHE: Optional["FingerprintCache"] = None


def _store_cache() -> "FingerprintCache":
    # Lazy, like the incidence cache: constructing it registers the
    # store_cache.hits/.misses counters with the metrics registry.
    from repro.provenance.valuation import FingerprintCache

    global _STORE_CACHE
    if _STORE_CACHE is None:
        _STORE_CACHE = FingerprintCache(capacity=8, metrics="store_cache")
    return _STORE_CACHE


def open_store(path: PathLike, cached: bool = True) -> CompiledNumericSet:
    """Open the compiled store at ``path`` as a mmap-backed compiled set.

    The returned object is the compiled-set class of the store's backend
    (``CompiledProvenanceSet`` for ``"real"``, the tropical/bool members of
    the same family otherwise) with every array viewing the read-only
    mapped file — opening is O(header), not O(monomials), and concurrent
    processes share one page-cache copy of the data.

    ``cached=True`` (default) consults the process-wide store cache, keyed
    by ``(absolute path, mtime_ns, size)`` so a rewritten file is re-opened;
    compiled sets are safe to share (their arrays are immutable and the lazy
    delta baseline tolerates races).

    Raises
    ------
    SerializationError
        On a bad magic, corrupted or truncated contents, a format-version
        mismatch or the wrong envelope kind.
    FileNotFoundError
        When ``path`` does not exist.
    """
    path = os.fspath(path)
    stat = os.stat(path)

    def build() -> CompiledNumericSet:
        with trace("store.open", path=os.path.basename(path)) as span:
            compiled = _open_store(path)
            span.update(
                {"backend": compiled.backend_name, "bytes": stat.st_size}
            )
        get_registry().inc("store.opens")
        return compiled

    if not cached:
        return build()
    key = (os.path.abspath(path), stat.st_mtime_ns, stat.st_size)
    return _store_cache().get_or_build(key, build)


def clear_store_cache() -> None:
    """Drop every cached open store (unmaps once no compiled set holds it)."""
    if _STORE_CACHE is not None:
        _STORE_CACHE.clear()


# ---------------------------------------------------------------------------
# Quarantine
# ---------------------------------------------------------------------------


def quarantine_store(path: PathLike) -> Optional[str]:
    """Move a corrupt store out of the way; the quarantine path (or ``None``).

    The file is renamed to ``<path>.quarantined`` (``.quarantined.1``,
    ``.quarantined.2``, … when earlier quarantines already hold the name)
    so the next open fails fast with :class:`FileNotFoundError` instead of
    re-verifying a known-bad file.  Bumps ``resilience.quarantines`` and
    records a degradation event.  Returns ``None`` when ``path`` no longer
    exists (e.g. a concurrent quarantine won the rename).
    """
    path = os.fspath(path)
    target = f"{path}.quarantined"
    suffix = 0
    while os.path.exists(target):
        suffix += 1
        target = f"{path}.quarantined.{suffix}"
    try:
        os.replace(path, target)
    except FileNotFoundError:
        return None
    get_registry().inc("resilience.quarantines")
    record_degradation(f"quarantined corrupt store {path} -> {target}")
    return target
