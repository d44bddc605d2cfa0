"""Sparse flow windows: origin-destination slots as coordinate entries.

An OD flow matrix of one slot is almost all zeros: a 15-minute slot of a
100-station city holds a few dozen trips in 10,000 cells, and a
571-station city about 0.1% of its cells. Flows therefore travel from
ingest to the 1x1 convolution of Eqs. 1-4 as coordinate (COO) entries,
never as dense ``(k, n, n)`` stacks:

* a slot is a pair of parallel arrays: the flat cell index
  ``origin * n + destination`` and the float64 count in that cell;
* :class:`FlowSlots` holds a run of slots as CSR (one ``indptr`` over
  slots), the one flow format :class:`repro.data.dataset.BikeShareDataset`
  keeps (:func:`repro.data.flows.build_flow_slots` builds it from trips);
* :class:`FlowWindow` is a model input: the slots of one short- or
  long-term window, each entry tagged with its ``channel`` (position in
  the window, oldest first).

:func:`canonical_entries` defines the one canonical per-slot form:
indices sorted and unique, counts summed in float64. The dataset and the
live store (:mod:`repro.serve.state`) both build slots with it, so for
the same slot they hold identical arrays, and the windows they assemble
from those slots are equal entry for entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

_NO_INDEX = np.zeros(0, dtype=np.int64)
_NO_INDEX.setflags(write=False)
_NO_COUNT = np.zeros(0)
_NO_COUNT.setflags(write=False)


def canonical_entries(
    keys: np.ndarray, counts: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique ``keys`` with their summed float64 ``counts``.

    ``counts`` defaults to one per key (one trip event each). Summing
    integer-valued float64 counts is exact in any order, so a slot built
    from a shuffled event list equals the same slot read out of a dense
    tensor built with ``+= 1.0``.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size == 0:
        return _NO_INDEX, _NO_COUNT
    if counts is None:
        unique, tally = np.unique(keys, return_counts=True)
        return unique, tally.astype(np.float64)
    unique, inverse = np.unique(keys, return_inverse=True)
    return unique, np.bincount(inverse.ravel(), weights=counts, minlength=unique.size)


def _frozen(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.setflags(write=False)


@dataclass(frozen=True, slots=True)
class FlowWindow:
    """A ``(channels, n, n)`` flow window as COO entries.

    ``channel[e]`` is the window position (slot, oldest first) of entry
    ``e``, ``index[e]`` its flat cell ``origin * n + destination`` and
    ``count[e]`` its trip count. Entries are ordered by channel, then
    index, with no duplicate cell per channel. Arrays are read-only.
    """

    channel: np.ndarray  # (nnz,) int64
    index: np.ndarray  # (nnz,) int64
    count: np.ndarray  # (nnz,) float64
    channels: int
    num_stations: int

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.channels, self.num_stations, self.num_stations)

    @classmethod
    def from_slots(
        cls, slots: Sequence[tuple[np.ndarray, np.ndarray]], num_stations: int
    ) -> "FlowWindow":
        """Stack canonical ``(index, count)`` slots, oldest first."""
        lengths = [index.size for index, _ in slots]
        channel = np.repeat(np.arange(len(slots)), lengths)
        index = np.concatenate([index for index, _ in slots])
        count = np.concatenate([count for _, count in slots])
        _frozen(channel, index, count)
        return cls(channel, index, count, len(slots), num_stations)

    @classmethod
    def from_dense(cls, flows: np.ndarray) -> "FlowWindow":
        """The window of a dense ``(channels, n, n)`` stack."""
        return FlowSlots.from_dense(flows).window(0, flows.shape[0])

    def dense(self) -> np.ndarray:
        """The ``(channels, n, n)`` float64 stack these entries describe."""
        cells = self.num_stations * self.num_stations
        flat = np.bincount(
            self.channel * cells + self.index,
            weights=self.count,
            minlength=self.channels * cells,
        )
        return flat.reshape(self.shape)

    def row_sums(self) -> np.ndarray:
        """Per-channel station totals ``(channels, n)``: the row sums of
        :meth:`dense` (demand for an outflow window, supply for inflow)."""
        n = self.num_stations
        flat = np.bincount(
            self.channel * n + self.index // n,
            weights=self.count,
            minlength=self.channels * n,
        )
        return flat.reshape(self.channels, n)

    def total(self) -> np.ndarray:
        """The ``(n, n)`` sum over channels, ``dense().sum(axis=0)``."""
        n = self.num_stations
        total = np.bincount(self.index, weights=self.count, minlength=n * n)
        return total.reshape(n, n)

    def mean(self) -> np.ndarray:
        """The ``(n, n)`` mean over channels, ``dense().mean(axis=0)``."""
        return self.total() / self.channels


class FlowSlots:
    """A run of canonical slots stored as CSR over slots.

    Slot ``s`` holds ``index[indptr[s]:indptr[s + 1]]`` and the matching
    counts, so a window of consecutive slots is a slice of the entry
    arrays. Arrays are read-only.
    """

    __slots__ = ("indptr", "index", "count", "num_stations")

    def __init__(
        self,
        indptr: np.ndarray,
        index: np.ndarray,
        count: np.ndarray,
        num_stations: int,
    ) -> None:
        _frozen(indptr, index, count)
        self.indptr = indptr
        self.index = index
        self.count = count
        self.num_stations = num_stations

    @classmethod
    def from_keys(
        cls,
        keys: np.ndarray,
        num_slots: int,
        num_stations: int,
        counts: np.ndarray | None = None,
    ) -> "FlowSlots":
        """Canonical slots of flat ``slot * n * n + cell`` keys.

        ``counts`` defaults to one per key, as in :func:`canonical_entries`.
        """
        cells = num_stations * num_stations
        keys, count = canonical_entries(keys, counts)
        slot_of = keys // cells
        indptr = np.zeros(num_slots + 1, dtype=np.int64)
        np.cumsum(np.bincount(slot_of, minlength=num_slots), out=indptr[1:])
        return cls(indptr, keys - slot_of * cells, count, num_stations)

    @classmethod
    def from_dense(cls, flows: np.ndarray) -> "FlowSlots":
        """Canonical slots of a dense ``(T, n, n)`` flow tensor."""
        num_slots, n = flows.shape[0], flows.shape[1]
        flat = flows.reshape(num_slots, n * n)
        slot, cell = np.nonzero(flat)
        return cls.from_keys(slot * (n * n) + cell, num_slots, n, flat[slot, cell])

    @classmethod
    def from_slots(
        cls, slots: Sequence[tuple[np.ndarray, np.ndarray]], num_stations: int
    ) -> "FlowSlots":
        """Concatenate canonical ``(index, count)`` slots into CSR."""
        lengths = np.array([index.size for index, _ in slots], dtype=np.int64)
        indptr = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        index = np.concatenate([_NO_INDEX, *(index for index, _ in slots)])
        count = np.concatenate([_NO_COUNT, *(count for _, count in slots)])
        return cls(indptr, index, count, num_stations)

    @property
    def num_slots(self) -> int:
        return self.indptr.size - 1

    def slot(self, s: int) -> tuple[np.ndarray, np.ndarray]:
        """Slot ``s``'s canonical ``(index, count)`` (views)."""
        lo, hi = self.indptr[s], self.indptr[s + 1]
        return self.index[lo:hi], self.count[lo:hi]

    def window(self, start: int, stop: int, step: int = 1) -> FlowWindow:
        """Slots ``start, start + step, ... < stop`` as a :class:`FlowWindow`.

        A consecutive window (``step == 1``) shares the entry arrays;
        a strided one is stacked with :meth:`FlowWindow.from_slots`.
        Both give the arrays ``from_slots`` gives for the same slots.
        """
        if step != 1:
            slots = [self.slot(s) for s in range(start, stop, step)]
            return FlowWindow.from_slots(slots, self.num_stations)
        lo, hi = self.indptr[start], self.indptr[stop]
        channel = np.repeat(
            np.arange(stop - start), np.diff(self.indptr[start : stop + 1])
        )
        channel.setflags(write=False)
        return FlowWindow(
            channel, self.index[lo:hi], self.count[lo:hi],
            stop - start, self.num_stations,
        )

    def dense(self) -> np.ndarray:
        """The ``(T, n, n)`` float64 tensor these slots describe."""
        return self.window(0, self.num_slots).dense()

    def row_sums(self) -> np.ndarray:
        """Per-slot station totals ``(T, n)``, the row sums of :meth:`dense`."""
        return self.window(0, self.num_slots).row_sums()
