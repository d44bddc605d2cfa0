"""Turn live flow-store history into training-ready datasets.

The continual-learning loop (:mod:`repro.continual.loop`) retrains on
what the prediction service has actually observed. This module is the
bridge from :class:`~repro.serve.state.FlowStateStore` back into the
offline training stack:

* :func:`extract_training_dataset` pulls a day-aligned multi-day window
  of canonical slots through ``history_slots()`` — finalized slots only,
  **bitwise equal** to what :func:`repro.data.flows.build_flow_slots`
  would produce from the same trip log (the store's equivalence
  guarantee) — and hands them, as they are, to a
  :class:`~repro.data.dataset.BikeShareDataset` whose normalizers are
  *pinned to the deployment's scalers* rather than refitted, so the
  candidate model trains in the same input space the live model serves
  in.
* :func:`holdback_samples` assembles :class:`FlowSample` bundles for
  the most recent finalized slots — the held-back span the shadow
  evaluation scores candidate vs. live on — with the dataset's own
  sampler (:func:`~repro.data.dataset.sample_from_slots`). These slots
  sit *after* the training window's end, so the candidate is never
  evaluated on data it just trained on.
"""

from __future__ import annotations

from repro.data.dataset import (
    BikeShareDataset,
    FlowDataConfig,
    FlowSample,
    sample_from_slots,
)
from repro.data.normalize import MinMaxNormalizer
from repro.data.stations import StationRegistry


class InsufficientHistoryError(RuntimeError):
    """The store does not retain enough finalized history for a window.

    Raised instead of silently shrinking the training window: a loop
    that trains on fewer days than configured would drift in quality
    without any signal. Configure the store with ``retained_slots``
    deep enough for ``train_days`` plus the holdback span.
    """


def window_bounds(
    store, *, train_days: int, holdback_slots: int = 0
) -> tuple[int, int]:
    """Day-aligned ``[start_slot, end_slot)`` for a training extraction.

    ``end_slot`` is the last day boundary at or below
    ``frontier - holdback_slots`` — the held-back span between the
    training window and the frontier is what the shadow evaluation
    scores on. Raises :class:`InsufficientHistoryError` when the store's
    retained (finalized) history cannot cover ``train_days`` whole days.
    """
    if train_days < 1:
        raise ValueError(f"train_days must be >= 1, got {train_days}")
    if holdback_slots < 0:
        raise ValueError(f"holdback_slots must be >= 0, got {holdback_slots}")
    spd = store.config.slots_per_day
    end = ((store.frontier - holdback_slots) // spd) * spd
    start = end - train_days * spd
    oldest = store.oldest_retained
    if start < 0 or start < oldest:
        raise InsufficientHistoryError(
            f"training window needs slots [{start}, {end}) but the store "
            f"retains [{oldest}, {store.frontier}); deepen retained_slots "
            f"or stream more history before extracting"
        )
    return start, end


def extract_training_dataset(
    store,
    registry: StationRegistry,
    *,
    train_days: int,
    holdback_slots: int = 0,
    demand_normalizer: MinMaxNormalizer | None = None,
    supply_normalizer: MinMaxNormalizer | None = None,
    flow_scale: float | None = None,
    train_fraction: float = 0.7,
    val_fraction: float = 0.1,
    name: str = "continual",
) -> tuple[BikeShareDataset, int]:
    """Extract a training dataset from live store history.

    Returns ``(dataset, start_slot)`` where ``start_slot`` is the
    absolute store slot of the dataset's row 0 — dataset-relative
    prediction times ``t`` map back to store slots as ``start_slot + t``.

    When the deployment's normalizers are given, they are pinned on the
    dataset (see :meth:`BikeShareDataset.use_normalizers`); otherwise
    the dataset fits its own on the extracted train split — fine for a
    cold start, wrong for an incremental cycle.
    """
    start, end = window_bounds(
        store, train_days=train_days, holdback_slots=holdback_slots
    )
    first, inflow, outflow = store.history_slots(slots=end - start, end=end)
    assert first == start
    config = FlowDataConfig(
        slot_seconds=store.config.slot_seconds,
        short_window=store.config.short_window,
        long_days=store.config.long_days,
        train_fraction=train_fraction,
        val_fraction=val_fraction,
    )
    dataset = BikeShareDataset(registry, inflow, outflow, config, name=name)
    if demand_normalizer is not None or supply_normalizer is not None:
        if demand_normalizer is None or supply_normalizer is None:
            raise ValueError(
                "pin both demand and supply normalizers, or neither"
            )
        if flow_scale is None:
            raise ValueError("pinned normalizers require an explicit flow_scale")
        dataset.use_normalizers(demand_normalizer, supply_normalizer, flow_scale)
    return dataset, start


def holdback_samples(store, holdback_slots: int) -> list[FlowSample]:
    """Model-ready samples for the newest ``holdback_slots`` finalized slots.

    Each returned :class:`FlowSample` carries the *absolute* store slot
    in ``t``; its windows and targets come from one ``history_slots()``
    read, built by the sampler :meth:`BikeShareDataset.sample` uses, so
    they share the store's equivalence with the batch slots. Raises
    :class:`InsufficientHistoryError` when the retained history cannot
    back the deepest sample's windows.
    """
    if holdback_slots < 1:
        raise ValueError(f"holdback_slots must be >= 1, got {holdback_slots}")
    depth = store.config.horizon + holdback_slots
    end = store.frontier
    if end - depth < 0 or end - depth < store.oldest_retained:
        raise InsufficientHistoryError(
            f"holdback evaluation needs slots [{end - depth}, {end}) but the "
            f"store retains [{store.oldest_retained}, {end})"
        )
    first, inflow, outflow = store.history_slots(slots=depth, end=end)
    demand, supply = outflow.row_sums(), inflow.row_sums()
    return [
        sample_from_slots(
            inflow, outflow, demand, supply, t - first, store.config, t=t
        )
        for t in range(end - holdback_slots, end)
    ]
