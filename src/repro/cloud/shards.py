"""The compiled MDB search plane, sharded with incremental compilation.

A plane compiled as one block would recompile the **whole** MDB on
every generation bump, dropping every norm and coarse cache, so an
online-growing MDB (the paper's implied clinical workflow — new
labelled slices adopted at runtime) would pay a serving pause
proportional to the *entire* store on every insert.  This module is
the repository's one compiled plane, and it shards instead:

* slices are grouped into fixed-size runs (``shard_slices`` per shard)
  and each run is compiled into its own independent
  :class:`PlaneShard` — a :class:`~repro.cloud.plane.PlaneCore` with
  its *own* norm and coarse caches plus its own shared-memory export;
* shards are **content-addressed** (the slice-dedup pattern of
  :mod:`repro.edge.fleet`): a shard's identity is a digest over its
  member slices' identity metadata, kept in a registry keyed by that
  digest.  A refresh recompiles only the shards whose content changed —
  for an append-only MDB that is the trailing shard — and *reuses* the
  untouched shards, caches and all;
* every refresh builds a fresh immutable :class:`ShardEpoch` and
  installs it with a single attribute assignment.  Readers ``pin()``
  the epoch once per request/batch, so an insert arriving mid-batch
  can never mix generations inside one batch — the in-flight batch
  keeps walking the epoch it pinned while new requests see the new one.

A plane over the whole store at once is simply the one-shard case,
``ShardedSearchPlane(source, shard_slices=len(source))``.  Search
engines scatter queries across the shard cores and merge the per-shard
hits in ascending shard order, so the global admission sequence is
exactly the one-shard scan order.  Results are therefore
**bit-identical** for every shard width: every per-slice quantity
(dots, norms, walks, coarse scores) is a pure function of that slice's
samples, and the screening/merge passes apply the same global
selections over concatenated per-shard arrays.
``tests/test_cloud_shards.py`` asserts it under hypothesis, against a
one-shard compile and the scalar oracle.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from multiprocessing import shared_memory
from types import TracebackType
from typing import Any, Mapping, Sequence

import numpy as np

from repro import obs
from repro.cloud.plane import (
    DEFAULT_FFT_MIN_SAMPLES,
    PlaneCore,
    PlaneShareSpec,
)
from repro.errors import SearchError
from repro.mdb.mdb import MegaDatabase
from repro.mdb.schema import slice_from_document
from repro.signals.types import SignalSlice
from repro.storage.documents import ID_FIELD

#: Slices per shard.  Small enough that a single-document insert
#: recompiles a sliver of the store, large enough that the per-shard
#: fixed costs (one ``np.correlate`` per coarse phase, one walker
#: layout) stay amortised across many slices.
DEFAULT_SHARD_SLICES = 64


def _slice_key(sig_slice: SignalSlice) -> bytes | None:
    """The content-address contribution of one slice, or ``None``.

    Identity metadata only (id, label, source, start, length) plus an
    O(1) boundary-sample fingerprint — the same contract as the edge
    fleet's slice dedup: MDB documents are immutable once inserted, so
    a stable ``slice_id`` names stable content.  Slices without an id
    cannot be content-addressed (``None`` → the owning shard is always
    recompiled, which is correct, just unshared).
    """
    if not sig_slice.slice_id:
        return None
    digest = hashlib.blake2b(digest_size=16)
    data = sig_slice.data
    for part in (
        sig_slice.slice_id,
        str(sig_slice.label),
        sig_slice.source,
        str(sig_slice.start_sample),
        str(data.size),
    ):
        digest.update(part.encode())
        digest.update(b"\x1f")
    if data.size:
        digest.update(np.float64(data[0]).tobytes())
        digest.update(np.float64(data[-1]).tobytes())
    return digest.digest()


def _shard_id(keys: Sequence[bytes | None]) -> str | None:
    """Content address of one shard from its members' slice keys.

    ``None`` when any member cannot be addressed (empty ``slice_id``);
    such shards never enter the registry and are recompiled on every
    refresh.
    """
    present = [key for key in keys if key is not None]
    if len(present) < len(keys):
        return None
    return hashlib.blake2b(b"".join(present), digest_size=16).hexdigest()


#: A document's fields :func:`~repro.mdb.schema.slice_from_document`
#: reads: samples (compared by identity), label, source, start, id.
_DocumentFields = tuple[Any, Any, Any, Any, Any]

#: One document's last read: its fields, its slice and content key.
_DocumentEntry = tuple[_DocumentFields, SignalSlice, bytes | None]


def _document_fields(document: Mapping[str, Any]) -> _DocumentFields:
    return (
        document.get("samples"),
        document.get("label"),
        document.get("source"),
        document.get("start_sample"),
        document.get("slice_id"),
    )


def _same_fields(a: _DocumentFields, b: _DocumentFields) -> bool:
    return a[0] is b[0] and a[1:] == b[1:]


class PlaneShard:
    """One independently compiled segment of the sharded plane.

    Owns its :class:`~repro.cloud.plane.PlaneCore` (and therefore its
    norm and coarse caches — warmed once, they survive every refresh
    that reuses the shard) plus an optional per-shard shared-memory
    export for pooled workers.  Immutable after construction except
    for the lazily created segment.
    """

    __slots__ = ("shard_id", "slices", "core", "_shm", "_spec")

    def __init__(
        self,
        shard_id: str | None,
        slices: Sequence[SignalSlice],
        fft_min_samples: int = DEFAULT_FFT_MIN_SAMPLES,
    ) -> None:
        if not slices:
            raise SearchError("cannot compile an empty plane shard")
        self.shard_id = shard_id
        self.slices: tuple[SignalSlice, ...] = tuple(slices)
        offsets = np.zeros(len(self.slices) + 1, dtype=np.int64)
        for index, sig_slice in enumerate(self.slices):
            offsets[index + 1] = offsets[index] + len(sig_slice)
        samples = np.concatenate([s.data for s in self.slices])
        self.core = PlaneCore(
            samples=samples,
            offsets=offsets,
            fft_min_samples=fft_min_samples,
        )
        self._shm: shared_memory.SharedMemory | None = None
        self._spec: PlaneShareSpec | None = None

    @property
    def n_slices(self) -> int:
        return len(self.slices)

    def share(self) -> PlaneShareSpec:
        """Export this shard's samples into shared memory (idempotent)."""
        if self._spec is not None:
            return self._spec
        samples = self.core.samples
        self._shm = shared_memory.SharedMemory(
            create=True, size=samples.nbytes
        )
        shared = np.frombuffer(
            self._shm.buf, dtype=np.float64, count=samples.size
        )
        shared[:] = samples
        self._spec = PlaneShareSpec(
            shm_name=self._shm.name,
            n_samples=samples.size,
            offsets=tuple(int(v) for v in self.core.offsets),
            fft_min_samples=self.core.fft_min_samples,
        )
        return self._spec

    def release(self) -> None:
        """Release the shared-memory segment (arrays stay usable)."""
        if self._shm is None:
            return
        try:
            self._shm.close()
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        self._shm = None
        self._spec = None

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.release()
        except Exception:
            pass


@dataclass(frozen=True)
class ShardedShareSpec:
    """Everything a pool worker needs to attach to a sharded plane."""

    specs: tuple[PlaneShareSpec, ...]
    bases: tuple[int, ...]
    generation: int


@dataclass(frozen=True)
class ShardEpoch:
    """One immutable snapshot of the compiled sharded plane.

    Installed atomically by :meth:`ShardedSearchPlane.refresh`; readers
    pin one epoch per request/batch and keep walking it even if a
    refresh lands mid-flight.  ``bases[k]`` is shard ``k``'s first
    global slice index, so a shard-local hit ``(local, ω, offset)``
    maps to the global slice ``bases[k] + local``.
    """

    shards: tuple[PlaneShard, ...]
    bases: tuple[int, ...]
    slices: tuple[SignalSlice, ...]
    generation: int
    source_generation: int

    @property
    def n_slices(self) -> int:
        return len(self.slices)

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_samples(self) -> int:
        return sum(shard.core.n_samples for shard in self.shards)

    @property
    def nbytes(self) -> int:
        return sum(shard.core.nbytes for shard in self.shards)

    def slice_lengths(self) -> list[int]:
        return [len(sig_slice) for sig_slice in self.slices]

    def shard_sample_counts(self) -> list[int]:
        """Per-shard total sample counts (the partitioning weights)."""
        return [shard.core.n_samples for shard in self.shards]


class ShardedSearchPlane:
    """The sharded, incrementally compiled MDB plane.

    Built from a :class:`~repro.mdb.mdb.MegaDatabase` (tracking its
    generation counter, so :meth:`refresh` picks up later inserts) or
    from a plain slice list (static), and served through a search
    engine (``CorrelationSearch``, ``ParallelSearch``,
    ``CloudServer``).  Supports the context-manager protocol;
    :meth:`close` releases the shards' shared-memory segments.  Two
    properties matter at fleet scale:

    * :meth:`refresh` compiles **only the delta shards** — content
      hashes decide reuse, so an append-only insert recompiles one
      trailing shard while every other shard keeps its compiled core
      *and its warmed norm/coarse caches*;
    * the compiled state lives in an immutable :class:`ShardEpoch`
      swapped by single assignment, so readers that :meth:`pin` an
      epoch never observe a mid-batch generation mix.
    """

    def __init__(
        self,
        source: MegaDatabase | Sequence[SignalSlice],
        shard_slices: int = DEFAULT_SHARD_SLICES,
        fft_min_samples: int = DEFAULT_FFT_MIN_SAMPLES,
    ) -> None:
        if shard_slices < 1:
            raise SearchError(
                f"shard_slices must be >= 1, got {shard_slices}"
            )
        self._mdb = source if isinstance(source, MegaDatabase) else None
        self._static_slices = (
            None if self._mdb is not None else tuple(source)
        )
        self.shard_slices = shard_slices
        self.fft_min_samples = fft_min_samples
        self._registry: dict[str, PlaneShard] = {}
        #: The last MDB read, keyed by document id.
        self._documents: dict[Any, _DocumentEntry] = {}
        self.last_refresh_compiled = 0
        self.last_refresh_reused = 0
        self._epoch = self._build_epoch(previous=None)

    # -- building ----------------------------------------------------

    def _source_state(
        self,
    ) -> tuple[int, tuple[SignalSlice, ...], list[bytes | None]]:
        """The source's generation, slices and per-slice content keys.

        MDB documents whose fields are unchanged since the last read
        (the same ``samples`` array object, the same metadata) reuse
        their materialised slice and key, so an append-only insert
        materialises and hashes only the new documents — a refresh's
        fixed cost stays small next to the delta compile.
        """
        if self._mdb is None:
            assert self._static_slices is not None
            slices = self._static_slices
            return 0, slices, [_slice_key(sig_slice) for sig_slice in slices]
        generation = self._mdb.generation
        read: dict[Any, _DocumentEntry] = {}
        for document in self._mdb.documents():
            fields = _document_fields(document)
            entry = self._documents.get(document[ID_FIELD])
            if entry is None or not _same_fields(entry[0], fields):
                sig_slice = slice_from_document(document)
                entry = (fields, sig_slice, _slice_key(sig_slice))
            read[document[ID_FIELD]] = entry
        self._documents = read
        entries = list(read.values())
        return (
            generation,
            tuple(entry[1] for entry in entries),
            [entry[2] for entry in entries],
        )

    def _build_epoch(self, previous: ShardEpoch | None) -> ShardEpoch:
        with obs.trace.span("cloud.plane.build") as span:
            source_generation, slices, keys = self._source_state()
            if not slices:
                raise SearchError(
                    "cannot compile a search plane over an empty "
                    "signal-set store"
                )
            shards: list[PlaneShard] = []
            registry: dict[str, PlaneShard] = {}
            compiled = 0
            reused = 0
            for begin in range(0, len(slices), self.shard_slices):
                group = slices[begin : begin + self.shard_slices]
                shard_id = _shard_id(keys[begin : begin + self.shard_slices])
                if shard_id is not None and shard_id in registry:
                    # Identical content appearing twice in one epoch:
                    # compile the duplicate privately so each shard
                    # keeps exactly one owner for its lifecycle.
                    shard_id = None
                existing = (
                    self._registry.get(shard_id)
                    if shard_id is not None
                    else None
                )
                if existing is not None:
                    shard = existing
                    reused += 1
                else:
                    shard = PlaneShard(
                        shard_id, group, self.fft_min_samples
                    )
                    compiled += 1
                if shard_id is not None:
                    registry[shard_id] = shard
                shards.append(shard)
            bases = np.zeros(len(shards), dtype=np.int64)
            for index, shard in enumerate(shards[:-1]):
                bases[index + 1] = bases[index] + shard.n_slices
            epoch = ShardEpoch(
                shards=tuple(shards),
                bases=tuple(int(v) for v in bases),
                slices=slices,
                generation=(previous.generation + 1) if previous else 1,
                source_generation=source_generation,
            )
        # Retire shards the new epoch no longer references (their
        # shared-memory exports would otherwise leak until GC).
        if previous is not None:
            alive = {id(shard) for shard in shards}
            for shard in previous.shards:
                if id(shard) not in alive:
                    shard.release()
        self._registry = registry
        self.last_refresh_compiled = compiled
        self.last_refresh_reused = reused
        metrics = obs.metrics()
        if metrics.enabled:
            metrics.inc("cloud.plane.builds")
            metrics.set_gauge("cloud.plane.slices", len(slices))
            metrics.set_gauge("cloud.plane.compiled_bytes", epoch.nbytes)
            metrics.set_gauge("cloud.plane.shard.count", len(shards))
            metrics.inc("cloud.plane.shard.compiled", compiled)
            metrics.inc("cloud.plane.shard.reused", reused)
            if reused:
                metrics.observe(
                    "cloud.plane.shard.delta_compile_s", span.elapsed_s
                )
            else:
                metrics.observe(
                    "cloud.plane.shard.full_compile_s", span.elapsed_s
                )
        return epoch

    def refresh(self) -> bool:
        """Adopt the backing MDB's current state; True if it moved.

        Delta-compiles: only shards whose content address changed are
        rebuilt, and the new epoch is installed with one assignment —
        in-flight readers holding a pinned epoch are undisturbed.
        """
        if self._mdb is None:
            return False
        if self._mdb.generation == self._epoch.source_generation:
            return False
        self._epoch = self._build_epoch(previous=self._epoch)
        return True

    def pin(self) -> ShardEpoch:
        """The current epoch — capture once per request or batch."""
        return self._epoch

    # -- delegation to the current epoch ------------------------------

    @property
    def generation(self) -> int:
        return self._epoch.generation

    @property
    def source_generation(self) -> int:
        return self._epoch.source_generation

    @property
    def slices(self) -> tuple[SignalSlice, ...]:
        return self._epoch.slices

    @property
    def n_slices(self) -> int:
        return self._epoch.n_slices

    @property
    def n_shards(self) -> int:
        return self._epoch.n_shards

    @property
    def n_samples(self) -> int:
        return self._epoch.n_samples

    @property
    def nbytes(self) -> int:
        return self._epoch.nbytes

    @property
    def registry_size(self) -> int:
        """Content-addressed shards currently held for reuse."""
        return len(self._registry)

    def slice_lengths(self) -> list[int]:
        return self._epoch.slice_lengths()

    # -- shared-memory lifecycle -------------------------------------

    def share(self) -> ShardedShareSpec:
        """Export every shard into shared memory (idempotent per shard).

        Reused shards keep their existing segments across refreshes, so
        a delta refresh also delta-exports.
        """
        epoch = self._epoch
        spec = ShardedShareSpec(
            specs=tuple(shard.share() for shard in epoch.shards),
            bases=epoch.bases,
            generation=epoch.generation,
        )
        obs.metrics().set_gauge(
            "cloud.plane.shared_bytes",
            sum(spec.n_samples * 8 for spec in spec.specs),
        )
        return spec

    def close(self) -> None:
        """Release every shard's shared-memory segment (the compiled
        arrays stay usable)."""
        for shard in self._epoch.shards:
            shard.release()
        for shard in self._registry.values():
            shard.release()

    def __enter__(self) -> "ShardedSearchPlane":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    def __len__(self) -> int:
        return self.n_slices
