"""Trace specifications, construction, persistence and statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro.hashing import content_hash
from repro.sim.batch import BatchedTrace
from repro.sim.types import MemoryAccess
from repro.workloads import formats as trace_formats
from repro.workloads.formats import (
    TraceFile,
    TraceFormatError,
    slice_accesses,
)

#: (path, digest) pairs already verified in this process, so streaming jobs
#: hash each trace file at most once per process.
_VERIFIED_SOURCES: set = set()


@dataclass(frozen=True)
class TraceSource:
    """Reference to an on-disk trace file backing a :class:`TraceSpec`.

    Attributes:
        path: filesystem location of the trace file.
        format: trace format name (see :data:`repro.workloads.formats.FORMATS`).
        digest: SHA-256 of the raw file bytes.  Identity is *content-based*:
            two sources with equal format and digest are the same trace
            regardless of path, and engine cache keys fold in only
            ``(format, digest)`` so results stay deterministic across file
            moves and hosts.
    """

    path: str
    format: str
    digest: str

    @classmethod
    def from_path(cls, path, format: Optional[str] = None) -> "TraceSource":
        """Build a source for an existing file, sniffing format and hashing."""
        fmt = (
            trace_formats.resolve_format(format)
            if format is not None
            else trace_formats.sniff_format(path)
        )
        return cls(
            path=str(path), format=fmt.name, digest=trace_formats.file_digest(path)
        )

    def to_dict(self) -> Dict[str, str]:
        """Plain-data representation (path included, for reconstruction)."""
        return {"path": self.path, "format": self.format, "digest": self.digest}

    @classmethod
    def from_dict(cls, data: Dict[str, str]) -> "TraceSource":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            path=data["path"], format=data["format"], digest=data["digest"]
        )

    def fingerprint(self) -> Dict[str, str]:
        """The content-identity part (no path) folded into cache keys."""
        return {"format": self.format, "digest": self.digest}

    def open(self, verify: bool = True) -> TraceFile:
        """Open a re-openable streaming handle onto the file.

        With ``verify`` (the default), the file's digest is checked against
        the recorded one — once per process per (path, digest) — so a file
        edited after the spec was built cannot silently serve results under
        the stale cache key.
        """
        handle = TraceFile(self.path, format=self.format)
        if verify:
            key = (self.path, self.digest)
            if key not in _VERIFIED_SOURCES:
                actual = handle.digest()
                if actual != self.digest:
                    raise TraceFormatError(
                        f"trace file {self.path} changed on disk: digest "
                        f"{actual[:12]}… does not match the recorded "
                        f"{self.digest[:12]}…"
                    )
                _VERIFIED_SOURCES.add(key)
        return handle


@dataclass(frozen=True)
class TraceSpec:
    """Declarative description of one trace (generated or file-backed).

    Attributes:
        name: trace name used in reports (mirrors the paper's trace naming,
            e.g. ``"bwaves_s-like"``).
        suite: benchmark suite the trace belongs to (``"spec17"``, ``"ligra"``,
            ...).
        generator: key into :data:`repro.workloads.generators.GENERATORS`
            (ignored when ``source`` is set).
        params: keyword arguments forwarded to the generator constructor.
        seed: RNG seed (kept separate from params so sweeps can vary it).
        length: number of memory accesses to generate (or, for file-backed
            specs, to take from the start of the file).
        source: optional :class:`TraceSource` file reference; when set the
            trace streams from disk instead of being generated.
    """

    name: str
    suite: str
    generator: str
    params: Dict[str, object] = field(default_factory=dict)
    seed: int = 0
    length: int = 40_000
    source: Optional[TraceSource] = None

    def to_dict(self) -> Dict[str, object]:
        """Deterministic plain-data representation (params key-sorted).

        The ``source`` key is present only for file-backed specs, so
        serialized generator specs are byte-identical to those produced
        before file sources existed (stable engine cache keys).
        """
        data = {
            "name": self.name,
            "suite": self.suite,
            "generator": self.generator,
            "params": {key: self.params[key] for key in sorted(self.params)},
            "seed": self.seed,
            "length": self.length,
        }
        if self.source is not None:
            data["source"] = self.source.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TraceSpec":
        """Rebuild a :class:`TraceSpec` from :meth:`to_dict` output."""
        source = data.get("source")
        return cls(
            name=data["name"],
            suite=data["suite"],
            generator=data["generator"],
            params=dict(data.get("params", {})),
            seed=data.get("seed", 0),
            length=data.get("length", 40_000),
            source=TraceSource.from_dict(source) if source else None,
        )

    @classmethod
    def from_file(
        cls,
        path,
        name: Optional[str] = None,
        suite: str = "file",
        format: Optional[str] = None,
        length: Optional[int] = None,
    ) -> "TraceSpec":
        """Describe an on-disk trace file as a spec.

        ``length`` defaults to the file's record count (one streaming pass
        to count), so ``build()``/``stream()`` cover the whole file.
        """
        source = TraceSource.from_path(path, format=format)
        if length is None:
            length = sum(1 for _ in trace_formats.read_trace_stream(
                path, format=source.format
            ))
        return cls(
            name=name if name is not None else Path(path).name,
            suite=suite,
            generator="file",
            seed=0,
            length=length,
            source=source,
        )

    def identity_dict(self) -> Dict[str, object]:
        """Plain-data *content identity*: what the trace contains, not where.

        Like :meth:`to_dict` except a file source contributes only its
        ``(format, digest)`` fingerprint, never its path.  This is the form
        cache keys must hash (:meth:`content_key` and the experiment
        engine's job keys) so results survive file moves and host changes.
        """
        data = self.to_dict()
        if self.source is not None:
            data["source"] = self.source.fingerprint()
        return data

    def content_key(self) -> str:
        """Stable hash of everything that determines the trace contents.

        Generators are seed-deterministic, so two specs with the same
        content key produce byte-identical traces in any process.  For
        file-backed specs the key covers the file's *content digest* (not
        its path), so moving or copying a trace file never changes keys.
        """
        return content_hash(self.identity_dict())

    def build(self, length: Optional[int] = None) -> BatchedTrace:
        """The trace as columns: generated into them, or decoded from file."""
        length = length if length is not None else self.length
        if self.source is not None:
            return BatchedTrace.from_accesses(self.stream(length=length))
        return self._generate(length)

    def stream(self, length: Optional[int] = None) -> Iterator[MemoryAccess]:
        """Yield the trace's accesses lazily.

        For file-backed specs this streams straight off disk in O(1)
        memory; generator specs iterate the sequence view of :meth:`build`
        (generators are batch producers), so prefer :meth:`replayable` when
        the consumer can handle both shapes.
        """
        length = length if length is not None else self.length
        if self.source is not None:
            return slice_accesses(iter(self.source.open()), 0, length)
        return iter(self._generate(length))

    def replayable(self, length: Optional[int] = None):
        """The trace as a replayer-friendly source.

        File-backed specs return a re-openable
        :class:`~repro.workloads.formats.TraceFile` (sliced to ``length``)
        that the simulator streams in O(1) memory; generator specs return
        the generated :class:`~repro.sim.batch.BatchedTrace`.
        """
        length = length if length is not None else self.length
        if self.source is not None:
            return self.source.open().with_transforms(
                lambda accesses: slice_accesses(accesses, 0, length)
            )
        return self._generate(length)

    def _generate(self, length: int) -> BatchedTrace:
        """Run the configured generator (generator-backed specs only)."""
        from repro.workloads.generators import GENERATORS

        if self.generator not in GENERATORS:
            raise KeyError(f"unknown generator {self.generator!r}")
        generator_cls = GENERATORS[self.generator]
        generator = generator_cls(
            seed=self.seed,
            length=length,
            **self.params,
        )
        return generator.generate()


def make_trace(
    kind: Union[str, TraceSpec],
    seed: int = 0,
    length: int = 40_000,
    **params,
) -> BatchedTrace:
    """Build a trace either from a :class:`TraceSpec` or a generator name.

    When ``kind`` is a :class:`TraceSpec`, the spec's own length and
    parameters are used verbatim.
    """
    if isinstance(kind, TraceSpec):
        return kind.build()
    spec = TraceSpec(
        name=f"{kind}-{seed}",
        suite="adhoc",
        generator=kind,
        params=params,
        seed=seed,
        length=length,
    )
    return spec.build()


# --------------------------------------------------------------------------- #
# Persistence (delegates to the repro.workloads.formats subsystem)
# --------------------------------------------------------------------------- #
def _legacy_default_format(path: Union[str, Path]) -> Optional[str]:
    """Format name for paths whose suffix selects nothing: JSON lines.

    Earlier versions always wrote JSON lines whatever the suffix, so the
    compatibility wrappers below keep that default instead of the format
    registry's native default.
    """
    suffix = trace_formats.strip_compression_suffix(path).suffix.lower()
    for fmt in trace_formats.FORMATS.values():
        if suffix in fmt.suffixes:
            return fmt.name
    return "jsonl"


def save_trace(
    trace: Sequence[MemoryAccess],
    path: Union[str, Path],
    format: Optional[str] = None,
    compression: str = "auto",
) -> int:
    """Write a trace to disk; returns the number of records written.

    The format follows the path suffix (``.gzt`` native binary,
    ``.champsim`` ChampSim records, ``.jsonl`` JSON lines — optionally
    ``.gz``/``.xz`` compressed), defaulting to JSON lines for unknown
    suffixes as earlier versions did.  Unrepresentable records raise
    :class:`~repro.workloads.formats.TraceFormatError`.
    """
    return trace_formats.save_trace_file(
        trace,
        path,
        format=format if format is not None else _legacy_default_format(path),
        compression=compression,
    )


def load_trace(
    path: Union[str, Path], format: Optional[str] = None
) -> List[MemoryAccess]:
    """Read a trace file written in any supported format.

    The format is sniffed from the suffix, then the contents.  Truncated or
    corrupt files raise the typed
    :class:`~repro.workloads.formats.TraceFormatError` instead of leaking
    ``KeyError``/``struct.error`` from codec internals.
    """
    return trace_formats.load_trace_file(path, format=format)


def stream_trace(
    path: Union[str, Path], format: Optional[str] = None
) -> Iterator[MemoryAccess]:
    """Lazily yield the accesses stored at ``path`` (O(1) memory)."""
    return trace_formats.read_trace_stream(path, format=format)


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
def trace_statistics(
    trace: Union[Sequence[MemoryAccess], Iterator[MemoryAccess]],
    region_size: int = 4096,
) -> Dict[str, float]:
    """Summarise a trace: distinct blocks/regions/PCs, density, footprint size.

    Accepts any iterable (including streaming readers) and consumes it in
    one pass.  Useful for sanity-checking that a generator produces the
    access-pattern characteristics it advertises (tests rely on this).
    """
    blocks = set()
    pcs = set()
    region_blocks: Dict[int, set] = {}
    instructions = 0
    accesses = 0
    for access in trace:
        block = access.address >> 6
        region = access.address // region_size
        blocks.add(block)
        pcs.add(access.pc)
        region_blocks.setdefault(region, set()).add(block)
        instructions += access.instr_gap + 1
        accesses += 1
    if accesses == 0:
        return {
            "accesses": 0,
            "instructions": 0,
            "distinct_blocks": 0,
            "distinct_regions": 0,
            "distinct_pcs": 0,
            "mean_region_density": 0.0,
        }
    blocks_per_region = region_size // 64
    densities = [len(v) / blocks_per_region for v in region_blocks.values()]
    return {
        "accesses": float(accesses),
        "instructions": float(instructions),
        "distinct_blocks": float(len(blocks)),
        "distinct_regions": float(len(region_blocks)),
        "distinct_pcs": float(len(pcs)),
        "mean_region_density": sum(densities) / len(densities),
    }
