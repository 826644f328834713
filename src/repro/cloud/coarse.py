"""Coarse-pass candidate screening for the two-stage ``fast`` search.

The exact skip-walk (:class:`~repro.cloud.search.PlaneWalker`) prices
every slice at its full dot products even when the slice plainly cannot
contribute a match.  The coarse pass ranks slices first with a
**decimated block-sum (PAA) correlation**: each slice is summarised on
a fixed stride-``D`` grid of block sums, compiled **once per compiled
core** next to the exact norm caches, and a single ``np.correlate``
over the zero-padded concatenated block sums then scores every
grid-aligned (phase-0, ``o mod D = 0``) window of every slice at
``1/D²`` of the exact cost.  A slice's score is its best window's
block-mean dot divided by the exact cached window norm.

``fast`` mode keeps only the best ``keep_fraction`` of slices by score
(never fewer than the caller's ``min_keep``) and walks those exactly.
Quality is gated by the Fig. 11 search-quality benchmark, not by a
proof.

Everything query-independent (the padded grid, gather indices, phase-0
window norms) lives in :class:`CoarseIndex`, cached on the
:class:`~repro.cloud.plane.PlaneCore` it was compiled from — a shard
recompile creates a fresh core, which drops these caches exactly as it
drops the exact-pass norm caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import SearchError

if TYPE_CHECKING:  # runtime import would be circular (plane builds us)
    from repro.cloud.plane import PlaneCore, PlaneNorms

#: Denominators below this are treated as flat (zero-variance) windows,
#: matching the exact engines' epsilon.
_NORM_EPSILON = 1e-12


def _segment_max(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per-segment maximum of ``values``; empty segments yield ``-inf``.

    ``bounds`` has ``n + 1`` entries delimiting ``n`` contiguous
    segments.  ``np.maximum.reduceat`` mis-handles empty segments
    (it returns the element *at* the boundary), so the reduction runs
    over the non-empty starts only — consecutive non-empty starts are
    exactly the segment boundaries once empties carry no elements.
    """
    counts = np.diff(bounds)
    out = np.full(counts.size, -np.inf)
    nonempty = counts > 0
    if values.size:
        out[nonempty] = np.maximum.reduceat(values, bounds[:-1][nonempty])
    return out


@dataclass(frozen=True)
class ScreenOutcome:
    """One query's coarse screening verdict over the whole plane.

    ``keep`` flags the slices the exact stage must walk; ``margin`` is
    the coarse score of the weakest kept slice (the keep floor).
    """

    keep: np.ndarray
    margin: float
    elapsed_s: float

    def apply(self, scan: Sequence[int] | range) -> tuple[np.ndarray, int]:
        """Restrict the verdict to ``scan``'s slice ids.

        Returns ``(kept_ids, pruned_count)`` — per-slice verdicts are
        global, so any partition of the plane (shards, chunked workers)
        reaches identical decisions.
        """
        ids = np.asarray(scan, dtype=np.int64)
        kept = ids[self.keep[ids]]
        return kept, int(ids.size - kept.size)


def assemble_fast(
    scores: np.ndarray,
    keep_fraction: float,
    min_keep: int,
    elapsed_s: float,
) -> ScreenOutcome:
    """Turn per-slice coarse scores into a fast-mode verdict.

    The keep count and the lexsort tie-break (lower slice id wins) run
    over the *global* score vector — the concatenation of every shard's
    :meth:`CoarseIndex.fast_scores` — so the selection never depends on
    where shard boundaries fall.
    """
    n = scores.size
    n_keep = min(n, max(min_keep, int(np.ceil(keep_fraction * n))))
    keep = np.zeros(n, dtype=bool)
    if n_keep >= n:
        keep[:] = True
        margin = 0.0
    else:
        order = np.lexsort((np.arange(n), -scores))
        keep[order[:n_keep]] = True
        floor = scores[order[n_keep - 1]] if n_keep else -np.inf
        margin = float(floor) if np.isfinite(floor) else 0.0
    return ScreenOutcome(keep=keep, margin=margin, elapsed_s=elapsed_s)


class CoarseIndex:
    """The compiled phase-0 coarse screen for one ``(frame length, D)``.

    Construction walks every slice once, building the stride-``D``
    block sums and the gather indices that make a screen call pure
    vector work: one padded ``np.correlate`` plus O(candidates)
    arithmetic, with no per-slice Python loop on the query path.
    """

    def __init__(
        self,
        core: "PlaneCore",
        norms: "PlaneNorms",
        frame_samples: int,
        decimation: int,
    ) -> None:
        if decimation < 2:
            raise SearchError(
                f"coarse decimation must be >= 2, got {decimation}"
            )
        if decimation > frame_samples:
            raise SearchError(
                f"coarse decimation {decimation} exceeds the frame length "
                f"{frame_samples}"
            )
        self.frame_samples = frame_samples
        self.decimation = decimation
        self.n_slices = core.n_slices
        m, d = frame_samples, decimation
        self._n_core = m // d  # full query blocks = kernel length
        pad = self._n_core  # isolates slices in the shared correlate
        padded_parts: list[np.ndarray] = []
        pos_parts: list[np.ndarray] = []
        wnorm_parts: list[np.ndarray] = []
        bounds = np.zeros(self.n_slices + 1, dtype=np.int64)
        position = 0
        for index in range(self.n_slices):
            data = core.slice_data(index)
            n = data.size
            n_off = max(0, n - m + 1)
            centered = data - data.mean()
            n_blocks = n // d  # a partial last block is never read
            sums = centered[: n_blocks * d].reshape(n_blocks, d).sum(axis=1)
            count = (n_off - 1) // d + 1 if n_off > 0 else 0
            bounds[index + 1] = bounds[index] + count
            if count:
                pos_parts.append(position + np.arange(count, dtype=np.int64))
                wnorm_parts.append(norms.slice_norms(index)[::d])
            padded_parts.append(sums)
            padded_parts.append(np.zeros(pad))
            position += n_blocks + pad
        self._padded = (
            np.concatenate(padded_parts) if padded_parts else np.zeros(0)
        )
        self._corr_pos = (
            np.concatenate(pos_parts)
            if pos_parts
            else np.zeros(0, dtype=np.int64)
        )
        self._window_norms = (
            np.concatenate(wnorm_parts) if wnorm_parts else np.zeros(0)
        )
        self._bounds = bounds

    @property
    def nbytes(self) -> int:
        """Bytes of the compiled coarse arrays."""
        return sum(
            array.nbytes
            for array in (
                self._padded,
                self._corr_pos,
                self._window_norms,
                self._bounds,
            )
        )

    def fast_scores(self, centered: np.ndarray, norm: float) -> np.ndarray:
        """Per-slice phase-0 coarse scores (``-inf`` for offset-less).

        A pure per-slice function of the slice's compiled summaries, so
        concatenating per-shard score vectors gives the same vector for
        any shard width.
        """
        if norm < _NORM_EPSILON:
            return np.where(np.diff(self._bounds) > 0, 0.0, -np.inf)
        d = self.decimation
        kernel = centered[: self._n_core * d].reshape(self._n_core, d).sum(
            axis=1
        )
        dots = np.correlate(self._padded, kernel, mode="valid")
        estimate = dots[self._corr_pos] / d
        denominator = norm * self._window_norms
        flat = denominator < _NORM_EPSILON
        safe = np.where(flat, 1.0, denominator)
        score = estimate / safe
        score[flat] = 0.0
        return _segment_max(score, self._bounds)
