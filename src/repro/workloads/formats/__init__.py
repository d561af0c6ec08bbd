"""Trace file I/O: formats, compression, streaming readers and transforms.

This package turns the repo's in-memory traces into first-class file
artefacts:

* three formats — the versioned :mod:`native <repro.workloads.formats.native>`
  binary encoding, ChampSim-compatible 64-byte ``input_instr`` records
  (:mod:`repro.workloads.formats.champsim`) and the legacy JSON-lines
  encoding (:mod:`repro.workloads.formats.jsonl`);
* transparent gzip/xz compression on both read (magic-byte sniffing) and
  write (path suffix or explicit codec);
* :class:`TraceFile` — a *re-openable* streaming handle that yields
  :class:`~repro.sim.types.MemoryAccess` records lazily, so arbitrarily
  long traces simulate in O(1) memory and multi-core drivers can replay a
  trace by re-opening it instead of materializing it;
* composable streaming transforms (:func:`slice_accesses`,
  :func:`cap_instructions`, :func:`remap_addresses`, :func:`interleave`).

Every malformed-input path raises the typed :class:`TraceFormatError`.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.sim.types import MemoryAccess
from repro.workloads.formats.base import (
    COMPRESSIONS,
    PathLike,
    TraceFormat,
    TraceFormatError,
    compression_from_path,
    open_for_read,
    open_for_write,
    sniff_compression,
    strip_compression_suffix,
)
from repro.workloads.formats.champsim import ChampSimTraceFormat
from repro.workloads.formats.jsonl import JsonlTraceFormat
from repro.workloads.formats.native import MAGIC as NATIVE_MAGIC
from repro.workloads.formats.native import NativeTraceFormat
from repro.workloads.formats.transforms import (
    cap_instructions,
    interleave,
    remap_addresses,
    slice_accesses,
)

#: Registry of available formats, keyed by format name.
FORMATS: Dict[str, TraceFormat] = {
    fmt.name: fmt
    for fmt in (NativeTraceFormat(), ChampSimTraceFormat(), JsonlTraceFormat())
}

#: Format assumed when neither a name, a suffix nor file contents decide.
DEFAULT_FORMAT = "native"


def resolve_format(
    format: Optional[str] = None, path: Optional[PathLike] = None
) -> TraceFormat:
    """Pick a :class:`TraceFormat` from an explicit name or a path suffix.

    Explicit names win; otherwise the path suffix (after stripping any
    ``.gz``/``.xz`` compression suffix) selects the format; otherwise the
    native format is returned.
    """
    if format is not None:
        try:
            return FORMATS[format.lower()]
        except KeyError:
            raise TraceFormatError(
                f"unknown trace format {format!r}; "
                f"known: {', '.join(sorted(FORMATS))}"
            ) from None
    if path is not None:
        suffix = strip_compression_suffix(path).suffix.lower()
        for fmt in FORMATS.values():
            if suffix in fmt.suffixes:
                return fmt
    return FORMATS[DEFAULT_FORMAT]


def sniff_format(path: PathLike) -> TraceFormat:
    """Identify the format of an existing file from suffix, then contents.

    Contents disambiguate suffix-less files: the native magic, then a JSON
    object start, then (for 64-byte-multiple payloads) ChampSim records.
    """
    suffix = strip_compression_suffix(path).suffix.lower()
    for fmt in FORMATS.values():
        if suffix in fmt.suffixes:
            return fmt
    try:
        with open_for_read(path) as stream:
            head = stream.read(len(NATIVE_MAGIC))
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace file {path}: {exc}") from exc
    if head.startswith(NATIVE_MAGIC):
        return FORMATS["native"]
    if head[:1] in (b"{", b"[") or head.lstrip()[:1] == b"{":
        return FORMATS["jsonl"]
    return FORMATS["champsim"]


# --------------------------------------------------------------------------- #
# File-level operations
# --------------------------------------------------------------------------- #
def save_trace_file(
    trace: Iterable[MemoryAccess],
    path: PathLike,
    format: Optional[str] = None,
    compression: str = "auto",
) -> int:
    """Write ``trace`` (any iterable, consumed lazily) to ``path``.

    Returns the number of records written.  The format defaults from the
    path suffix (native otherwise); compression defaults from the suffix
    (``.gz`` → gzip, ``.xz`` → xz).  The write is atomic: records stream
    into a temporary sibling file that replaces ``path`` only on success,
    so a failure mid-stream (e.g. an unrepresentable record) never leaves
    a truncated trace behind that would later load as a valid shorter one.
    """
    if compression == "auto":
        compression = compression_from_path(path)
    fmt = resolve_format(format, path)
    path = Path(path)
    tmp_path = path.with_name(f".tmp-{path.name}")
    try:
        with open_for_write(tmp_path, compression) as stream:
            count = fmt.write(iter(trace), stream)
        os.replace(tmp_path, path)
    except BaseException as exc:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise TraceFormatError(
                f"cannot write trace file {path}: {exc}"
            ) from exc
        raise
    return count


def read_trace_stream(
    path: PathLike, format: Optional[str] = None
) -> Iterator[MemoryAccess]:
    """Lazily yield the accesses stored at ``path`` (O(1) memory).

    The stream is closed when the iterator is exhausted or garbage
    collected; use :class:`TraceFile` for a handle that can be re-opened.
    """
    fmt = resolve_format(format, path) if format is not None else sniff_format(path)
    try:
        stream = open_for_read(path)
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace file {path}: {exc}") from exc
    try:
        for access in fmt.read(stream):
            yield access
    except (OSError, EOFError) as exc:
        # gzip/xz raise OSError/EOFError on corrupt containers mid-stream.
        raise TraceFormatError(
            f"corrupt compressed trace {path}: {exc}"
        ) from exc
    finally:
        stream.close()


def load_trace_file(
    path: PathLike, format: Optional[str] = None
) -> List[MemoryAccess]:
    """Read the whole trace at ``path`` into a list."""
    return list(read_trace_stream(path, format=format))


def file_digest(path: PathLike) -> str:
    """SHA-256 hex digest of the raw file bytes (compressed form included)."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace file {path}: {exc}") from exc
    return digest.hexdigest()


def describe_trace_file(path: PathLike) -> Dict[str, object]:
    """Summarise a trace file: format, compression, size, records, digest.

    Streams through the whole file once to count records and instructions,
    so it also acts as a full-file validity check.
    """
    path = Path(path)
    fmt = sniff_format(path)
    records = 0
    instructions = 0
    with open_for_read(path) as stream:
        header = fmt.describe(stream)
    for access in read_trace_stream(path, format=fmt.name):
        records += 1
        instructions += access.instr_gap + 1
    info: Dict[str, object] = {
        "path": str(path),
        "format": fmt.name,
        "compression": sniff_compression(path),
        "bytes": path.stat().st_size,
        "records": records,
        "instructions": instructions,
        "digest": file_digest(path),
    }
    info.update(header)
    return info


# --------------------------------------------------------------------------- #
# Re-openable streaming handle
# --------------------------------------------------------------------------- #
class TraceFile:
    """A re-openable, lazily-streamed trace file.

    Iterating a :class:`TraceFile` opens a fresh decompressing reader each
    time, so the same handle serves both single-pass streaming simulation
    and replay-based consumers (the multi-core driver re-opens the trace
    instead of holding it in memory).  Transforms attached via
    :meth:`with_transforms` are re-applied on every pass.
    """

    def __init__(
        self,
        path: PathLike,
        format: Optional[str] = None,
        transforms: Tuple = (),
    ) -> None:
        self.path = Path(path)
        if not self.path.is_file():
            raise TraceFormatError(f"trace file not found: {self.path}")
        self.format = (
            resolve_format(format) if format is not None else sniff_format(self.path)
        )
        self.transforms = tuple(transforms)
        self._digest: Optional[str] = None

    def __iter__(self) -> Iterator[MemoryAccess]:
        accesses: Iterable[MemoryAccess] = read_trace_stream(
            self.path, format=self.format.name
        )
        for transform in self.transforms:
            accesses = transform(accesses)
        return iter(accesses)

    def with_transforms(self, *transforms) -> "TraceFile":
        """A new handle with ``transforms`` appended to the pipeline.

        Each transform is a callable mapping an access iterator to an
        access iterator (see :mod:`repro.workloads.formats.transforms`).
        """
        clone = TraceFile.__new__(TraceFile)
        clone.path = self.path
        clone.format = self.format
        clone.transforms = self.transforms + tuple(transforms)
        clone._digest = self._digest
        return clone

    def decode_batched(self):
        """Decode one full (transformed) pass into parallel arrays.

        Returns a :class:`repro.sim.batch.BatchedTrace` for the batched
        simulation kernel.  Unlike iteration, which streams in O(1) memory,
        the decoded arrays hold the entire trace; the simulator itself
        streams files chunk by chunk
        (:class:`repro.sim.batch.ChunkedTraceStream`).
        """
        from repro.sim.batch import BatchedTrace

        return BatchedTrace.from_accesses(iter(self))

    def digest(self) -> str:
        """Cached SHA-256 digest of the underlying file."""
        if self._digest is None:
            self._digest = file_digest(self.path)
        return self._digest

    def __repr__(self) -> str:
        return (
            f"TraceFile({str(self.path)!r}, format={self.format.name!r}, "
            f"transforms={len(self.transforms)})"
        )


__all__ = [
    "COMPRESSIONS",
    "DEFAULT_FORMAT",
    "FORMATS",
    "TraceFile",
    "TraceFormat",
    "TraceFormatError",
    "cap_instructions",
    "compression_from_path",
    "describe_trace_file",
    "file_digest",
    "interleave",
    "load_trace_file",
    "open_for_read",
    "open_for_write",
    "read_trace_stream",
    "remap_addresses",
    "resolve_format",
    "save_trace_file",
    "slice_accesses",
    "sniff_compression",
    "sniff_format",
    "strip_compression_suffix",
]
