"""Experiment definitions: one sweep per figure of the paper.

Every figure of the evaluation section is described by a
:class:`FigureSpec` listing its sweep points; each sweep point is a
:class:`RunSpec` carrying everything the runner needs - how to build
the dataset and template, the preference order, the query count and the
IPO Tree-k truncation.

Two parameterisations exist per figure:

* ``"paper"`` - the published values (Table 4 defaults; 250K-1M tuples,
  cardinality up to 40, ...).  These run for hours in pure Python.
* ``"scaled"`` (default) - the same sweeps shrunk to laptop scale.
  Relative behaviour (method ranking, growth trends, crossovers) is
  preserved; :mod:`repro.bench.paper_reference` checks it claim by
  claim.

The paper repeats preprocessing/storage measurements 100 times and
averages; we default to a single build (``repeats=1``) since pure
Python timing noise is far below the order-of-magnitude gaps the plots
show.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.dataset import Dataset
from repro.core.preferences import Preference
from repro.datagen.generator import (
    SyntheticConfig,
    frequent_value_template,
    generate,
)
from repro.datagen.nursery import nursery_dataset

SCALES = ("scaled", "paper")

#: Default number of random implicit preferences averaged per point.
#: The paper uses 100; the scaled harness uses fewer by default because
#: SFS-D dominates the runtime.  Override with ``--queries``.
DEFAULT_QUERY_COUNT = {"scaled": 20, "paper": 100}


@dataclass(frozen=True)
class RunSpec:
    """One sweep point of one figure."""

    figure: str
    x_label: str
    x: object
    dataset_builder: Callable[[], Dataset]
    template_builder: Callable[[Dataset], Preference]
    order: int
    query_count: int
    ipo_k: int
    seed: int = 0

    def describe(self) -> str:
        return f"{self.figure}: {self.x_label}={self.x}"


@dataclass(frozen=True)
class FigureSpec:
    """A full figure: an ordered list of sweep points plus captions."""

    figure: str
    title: str
    x_label: str
    runs: Tuple[RunSpec, ...]


def _synthetic_spec(
    figure: str,
    x_label: str,
    x: object,
    config: SyntheticConfig,
    order: int,
    query_count: int,
    ipo_k: int,
) -> RunSpec:
    return RunSpec(
        figure=figure,
        x_label=x_label,
        x=x,
        dataset_builder=lambda config=config: generate(config),
        template_builder=frequent_value_template,
        order=order,
        query_count=query_count,
        ipo_k=ipo_k,
        seed=config.seed,
    )


def figure4(scale: str = "scaled", query_count: Optional[int] = None) -> FigureSpec:
    """Figure 4: scalability with respect to database size."""
    _check_scale(scale)
    queries = query_count or DEFAULT_QUERY_COUNT[scale]
    if scale == "paper":
        sizes = [250_000, 500_000, 750_000, 1_000_000]
        base = SyntheticConfig()
        ipo_k = 10
    else:
        sizes = [1_000, 2_000, 4_000, 8_000]
        base = SyntheticConfig(cardinality=8)
        ipo_k = 4
    runs = [
        _synthetic_spec(
            "fig4",
            "points",
            n,
            base.with_(num_points=n),
            order=3,
            query_count=queries,
            ipo_k=ipo_k,
        )
        for n in sizes
    ]
    return FigureSpec(
        "fig4",
        "Scalability with respect to database size (anti-correlated)",
        "points",
        tuple(runs),
    )


def figure5(scale: str = "scaled", query_count: Optional[int] = None) -> FigureSpec:
    """Figure 5: scalability with respect to dimensionality.

    Total dimensions 4-7 with the number of numeric attributes fixed to
    3, i.e. 1-4 nominal attributes.  The full IPO tree has
    ``O((c+1)^m')`` nodes, so the scaled run trims the cardinality to
    keep the m'=4 point tractable in pure Python.
    """
    _check_scale(scale)
    queries = query_count or DEFAULT_QUERY_COUNT[scale]
    if scale == "paper":
        nominals = [1, 2, 3, 4]
        base = SyntheticConfig(num_points=500_000)
        ipo_k = 10
    else:
        nominals = [1, 2, 3, 4]
        base = SyntheticConfig(num_points=2_000, cardinality=5)
        ipo_k = 3
    runs = [
        _synthetic_spec(
            "fig5",
            "dimensions",
            3 + m,
            base.with_(num_nominal=m),
            order=3,
            query_count=queries,
            ipo_k=ipo_k,
        )
        for m in nominals
    ]
    return FigureSpec(
        "fig5",
        "Scalability with respect to dimensionality (3 numeric fixed)",
        "dimensions",
        tuple(runs),
    )


def figure6(scale: str = "scaled", query_count: Optional[int] = None) -> FigureSpec:
    """Figure 6: effect of the cardinality of the nominal attributes."""
    _check_scale(scale)
    queries = query_count or DEFAULT_QUERY_COUNT[scale]
    if scale == "paper":
        cardinalities = [10, 15, 20, 25, 30, 35, 40]
        base = SyntheticConfig(num_points=500_000)
        ipo_k = 10
    else:
        cardinalities = [4, 8, 12, 16]
        base = SyntheticConfig(num_points=2_000)
        ipo_k = 4
    runs = [
        _synthetic_spec(
            "fig6",
            "cardinality",
            c,
            base.with_(cardinality=c),
            order=3,
            query_count=queries,
            ipo_k=min(base.cardinality, c) if scale == "paper" else ipo_k,
        )
        for c in cardinalities
    ]
    # IPO Tree-10 always materialises 10 values in the paper run.
    if scale == "paper":
        runs = [
            _synthetic_spec(
                "fig6",
                "cardinality",
                c,
                base.with_(cardinality=c),
                order=3,
                query_count=queries,
                ipo_k=10,
            )
            for c in cardinalities
        ]
    return FigureSpec(
        "fig6",
        "Effect of the cardinality of the nominal attributes",
        "cardinality",
        tuple(runs),
    )


def figure7(scale: str = "scaled", query_count: Optional[int] = None) -> FigureSpec:
    """Figure 7: effect of the order of the implicit preference."""
    _check_scale(scale)
    queries = query_count or DEFAULT_QUERY_COUNT[scale]
    if scale == "paper":
        base = SyntheticConfig(num_points=500_000)
        ipo_k = 10
    else:
        base = SyntheticConfig(num_points=2_000, cardinality=8)
        ipo_k = 4
    runs = [
        _synthetic_spec(
            "fig7",
            "order",
            x,
            base,
            order=x,
            query_count=queries,
            ipo_k=ipo_k,
        )
        for x in [1, 2, 3, 4]
    ]
    return FigureSpec(
        "fig7",
        "Effect of the order of the implicit preference",
        "order",
        tuple(runs),
    )


def figure8(scale: str = "scaled", query_count: Optional[int] = None) -> FigureSpec:
    """Figure 8: the Nursery data set, preference order 0-3.

    Runs at the paper's exact scale in both parameterisations - the
    dataset is only 12,960 rows and is regenerated deterministically.
    Order 0 means "no special preference" (the template itself).
    """
    _check_scale(scale)
    queries = query_count or DEFAULT_QUERY_COUNT[scale]
    runs = tuple(
        RunSpec(
            figure="fig8",
            x_label="order",
            x=x,
            dataset_builder=nursery_dataset,
            template_builder=lambda _dataset: Preference.empty(),
            order=x,
            query_count=queries,
            ipo_k=4,  # cardinality of both nominal attributes
            seed=0,
        )
        for x in [0, 1, 2, 3]
    )
    return FigureSpec(
        "fig8",
        "Effect of the order of the implicit preference (Nursery)",
        "order",
        runs,
    )


FIGURES: Dict[str, Callable[..., FigureSpec]] = {
    "4": figure4,
    "5": figure5,
    "6": figure6,
    "7": figure7,
    "8": figure8,
}


def _check_scale(scale: str) -> None:
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose one of {SCALES}")
