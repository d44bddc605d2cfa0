"""The central dataset object: slotted flows plus windowed sampling.

``BikeShareDataset`` holds a city's inflow/outflow as canonical per-slot
COO entries (:class:`repro.data.window.FlowSlots`, see DESIGN "Sparse
flow windows") — the one flow format, never a dense ``(T, n, n)``
tensor — and exposes exactly what STGNN-DJD consumes at a prediction
time ``t`` (paper Sec. IV-A):

* the *short-term* window — flow matrices of the last ``k`` slots,
* the *long-term* window — flow matrices at the same slot-of-day over
  the previous ``d`` days,
* the targets — demand ``x^t`` and supply ``y^t`` per station.

Windows are :class:`repro.data.window.FlowWindow` entries, not dense
stacks. It also owns the day-aligned 70/10/20 train/validation/test
split and the Min-Max normalizers fitted on training data only
(Sec. VII-A).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.normalize import MinMaxNormalizer
from repro.data.records import SECONDS_PER_DAY
from repro.data.stations import StationRegistry
from repro.data.window import FlowSlots, FlowWindow


@dataclass(frozen=True, slots=True)
class FlowDataConfig:
    """Windowing hyperparameters for sampling model inputs.

    Attributes
    ----------
    slot_seconds:
        Duration of a time slot. The paper uses 15 minutes (900 s);
        tests use coarser slots to keep tensors small.
    short_window:
        ``k`` — number of most recent slots for short-term dependency.
        The paper sets ``k = 96`` (one full day of 15-minute slots).
    long_days:
        ``d`` — number of previous days whose same-slot matrices form
        the long-term window. The paper sets ``d = 7``.
    train_fraction / val_fraction:
        Day-aligned split fractions; the remainder is the test set.
    """

    slot_seconds: float = 900.0
    short_window: int = 96
    long_days: int = 7
    train_fraction: float = 0.7
    val_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.slot_seconds <= 0:
            raise ValueError(f"slot_seconds must be positive, got {self.slot_seconds}")
        if SECONDS_PER_DAY % self.slot_seconds != 0:
            raise ValueError(
                f"slot_seconds ({self.slot_seconds}) must divide a day evenly"
            )
        if self.short_window < 1:
            raise ValueError(f"short_window must be >= 1, got {self.short_window}")
        if self.long_days < 1:
            raise ValueError(f"long_days must be >= 1, got {self.long_days}")
        if not 0.0 < self.train_fraction < 1.0 or not 0.0 < self.val_fraction < 1.0:
            raise ValueError("split fractions must be in (0, 1)")
        if self.train_fraction + self.val_fraction >= 1.0:
            raise ValueError("train_fraction + val_fraction must leave room for a test set")

    @property
    def slots_per_day(self) -> int:
        return int(SECONDS_PER_DAY // self.slot_seconds)


@dataclass(frozen=True, slots=True)
class FlowSample:
    """Model input/target bundle for one prediction time ``t``.

    Flow windows are raw counts as COO entries of ``(k, n, n)`` and
    ``(d, n, n)`` stacks (:meth:`FlowWindow.dense` recovers the stack);
    normalization happens in the model or trainer so that a sample
    remains interpretable on its own.
    """

    t: int
    short_inflow: FlowWindow  # (k, n, n)
    short_outflow: FlowWindow  # (k, n, n)
    long_inflow: FlowWindow  # (d, n, n)
    long_outflow: FlowWindow  # (d, n, n)
    target_demand: np.ndarray  # (n,)
    target_supply: np.ndarray  # (n,)


def sample_from_slots(
    inflow: FlowSlots,
    outflow: FlowSlots,
    demand: np.ndarray,
    supply: np.ndarray,
    i: int,
    config,
    t: int | None = None,
) -> FlowSample:
    """The :class:`FlowSample` predicting slot ``i`` of a run of slots.

    ``demand``/``supply`` are the slots' row sums; ``config`` supplies
    ``short_window``, ``long_days`` and ``slots_per_day``; ``t`` labels
    the sample (default ``i``). A short window is a slice of the CSR,
    a long window stacks its ``d`` strided slots.
    """
    k = config.short_window
    spd = config.slots_per_day
    long_start = i - config.long_days * spd
    return FlowSample(
        t=i if t is None else t,
        short_inflow=inflow.window(i - k, i),
        short_outflow=outflow.window(i - k, i),
        long_inflow=inflow.window(long_start, i, spd),
        long_outflow=outflow.window(long_start, i, spd),
        target_demand=demand[i],
        target_supply=supply[i],
    )


class BikeShareDataset:
    """Slotted bike-share flows for one city."""

    def __init__(
        self,
        registry: StationRegistry,
        inflow: FlowSlots,
        outflow: FlowSlots,
        config: FlowDataConfig,
        name: str = "",
    ) -> None:
        if inflow.num_slots != outflow.num_slots:
            raise ValueError(
                f"inflow has {inflow.num_slots} slots, outflow {outflow.num_slots}"
            )
        for flows in (inflow, outflow):
            if flows.num_stations != len(registry):
                raise ValueError(
                    f"flow slots have {flows.num_stations} stations, "
                    f"registry has {len(registry)}"
                )
        if inflow.num_slots % config.slots_per_day != 0:
            raise ValueError(
                f"{inflow.num_slots} slots is not a whole number of "
                f"{config.slots_per_day}-slot days"
            )
        self.registry = registry
        #: Canonical per-slot COO entries, the source of every window.
        self.inflow_slots = inflow
        self.outflow_slots = outflow
        self.config = config
        self.name = name
        self.demand = outflow.row_sums()
        self.supply = inflow.row_sums()
        self._demand_normalizer: MinMaxNormalizer | None = None
        self._supply_normalizer: MinMaxNormalizer | None = None
        self._flow_scale: float | None = None

    @property
    def outflow(self) -> np.ndarray:
        """The dense ``(T, n, n)`` outflow, rebuilt from the slots on
        every read (a fresh copy: editing it changes nothing here)."""
        return self.outflow_slots.dense()

    # ------------------------------------------------------------------
    # Dimensions
    # ------------------------------------------------------------------
    @property
    def num_stations(self) -> int:
        return self.inflow_slots.num_stations

    @property
    def num_slots(self) -> int:
        return self.inflow_slots.num_slots

    @property
    def slots_per_day(self) -> int:
        return self.config.slots_per_day

    @property
    def num_days(self) -> int:
        return self.num_slots // self.slots_per_day

    def slot_of_day(self, t: int) -> int:
        """Time-of-day index of slot ``t`` (0 .. slots_per_day-1)."""
        return t % self.slots_per_day

    @property
    def min_history(self) -> int:
        """Earliest ``t`` with full short- and long-term windows."""
        return max(self.config.short_window, self.config.long_days * self.slots_per_day)

    # ------------------------------------------------------------------
    # Splits
    # ------------------------------------------------------------------
    def split_indices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Day-aligned (train, val, test) prediction-time indices.

        The paper splits by *days*: first 70% of days train, next 10%
        validate, the rest test. Indices earlier than :attr:`min_history`
        are excluded because their windows would be incomplete.
        """
        # At least one day per split, so tiny test datasets remain usable.
        train_days = max(1, int(self.num_days * self.config.train_fraction))
        val_days = max(1, int(self.num_days * self.config.val_fraction))
        if train_days + val_days >= self.num_days:
            raise ValueError(
                f"dataset with {self.num_days} days cannot be split "
                f"{self.config.train_fraction}/{self.config.val_fraction}/rest"
            )
        spd = self.slots_per_day
        all_t = np.arange(self.min_history, self.num_slots)
        day_of = all_t // spd
        train = all_t[day_of < train_days]
        val = all_t[(day_of >= train_days) & (day_of < train_days + val_days)]
        test = all_t[day_of >= train_days + val_days]
        if len(train) == 0:
            raise ValueError(
                "no training indices: history windows consume the whole training span; "
                "use more days or smaller windows"
            )
        return train, val, test

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, t: int) -> FlowSample:
        """Assemble the model input for prediction time ``t``.

        Windows are read-only and equal, entry for entry, to the windows
        a :class:`repro.serve.state.FlowStateStore` holding the same
        slots serves.
        """
        if not self.min_history <= t < self.num_slots:
            raise IndexError(
                f"t={t} outside the sampleable range "
                f"[{self.min_history}, {self.num_slots})"
            )
        return sample_from_slots(
            self.inflow_slots, self.outflow_slots, self.demand, self.supply,
            t, self.config,
        )

    # ------------------------------------------------------------------
    # Normalization (fitted lazily on the training split)
    # ------------------------------------------------------------------
    def _fit_normalizers(self) -> None:
        train, _, _ = self.split_indices()
        self._demand_normalizer = MinMaxNormalizer().fit(self.demand[train])
        self._supply_normalizer = MinMaxNormalizer().fit(self.supply[train])
        train_flow_max = max(
            float(flows.count[: flows.indptr[train[-1] + 1]].max(initial=0.0))
            for flows in (self.inflow_slots, self.outflow_slots)
        )
        self._flow_scale = train_flow_max if train_flow_max > 0 else 1.0

    @property
    def demand_normalizer(self) -> MinMaxNormalizer:
        if self._demand_normalizer is None:
            self._fit_normalizers()
        return self._demand_normalizer

    @property
    def supply_normalizer(self) -> MinMaxNormalizer:
        if self._supply_normalizer is None:
            self._fit_normalizers()
        return self._supply_normalizer

    @property
    def flow_scale(self) -> float:
        """Scale for flow-matrix inputs (max training flow count)."""
        if self._flow_scale is None:
            self._fit_normalizers()
        return self._flow_scale

    def use_normalizers(
        self,
        demand: MinMaxNormalizer,
        supply: MinMaxNormalizer,
        flow_scale: float,
    ) -> "BikeShareDataset":
        """Pin externally fitted normalizers instead of fitting lazily.

        The continual-learning loop retrains on short windows extracted
        from the live store; refitting Min-Max ranges per window would
        silently rescale the model's input space every cycle, so each
        extraction adopts the *deployment's* normalizers (the ones the
        serving checkpoint was trained with). Returns ``self``.
        """
        if flow_scale <= 0:
            raise ValueError(f"flow_scale must be positive, got {flow_scale}")
        self._demand_normalizer = demand
        self._supply_normalizer = supply
        self._flow_scale = float(flow_scale)
        return self

    def __repr__(self) -> str:
        return (
            f"BikeShareDataset(name={self.name!r}, stations={self.num_stations}, "
            f"days={self.num_days}, slots_per_day={self.slots_per_day})"
        )
