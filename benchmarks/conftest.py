"""Shared machinery for the figure benchmarks.

Each ``bench_fig*.py`` file regenerates one figure of the paper's
evaluation section with pytest-benchmark: the benchmarked callables are
the per-method query paths (panel b) and the index constructions
(panel a); storage (panel c) and the proportion metrics (panel d) are
attached to the benchmark's ``extra_info`` so a single
``pytest benchmarks/ --benchmark-only`` run carries every panel.

Workloads are cached per parameterisation: building an IPO tree is
itself one of the measured quantities, so the cache stores *built*
bundles and construction is benchmarked separately with
``benchmark.pedantic(rounds=1)``.

Scales here are benchmark-friendly (seconds, not hours); the CLI
harness (``python -m repro.bench``) runs the bigger scaled sweeps and
checks their shapes against the paper's claims
(:mod:`repro.bench.paper_reference`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import pytest

from repro.adaptive.adaptive_sfs import AdaptiveSFS
from repro.algorithms.sfs_d import SFSDirect
from repro.core.dataset import Dataset
from repro.core.preferences import Preference
from repro.datagen.generator import (
    SyntheticConfig,
    frequent_value_template,
    generate,
)
from repro.datagen.nursery import nursery_dataset
from repro.datagen.queries import generate_preferences
from repro.ipo.tree import IPOTree


@dataclass
class Bundle:
    """Everything one sweep point needs, built once."""

    dataset: Dataset
    template: Preference
    tree: IPOTree
    tree_k: IPOTree
    adaptive: AdaptiveSFS
    direct: SFSDirect
    preferences: List[Preference]

    def preference(self) -> Preference:
        """A representative query preference for benchmarking."""
        return self.preferences[0]

    def popular_preference(self) -> Preference:
        """A same-order preference restricted to IPO Tree-k's values.

        IPO Tree-k only answers queries over the materialised (popular)
        values - others fall back to SFS-A (measured separately in the
        hybrid ablation).  This preference keeps the tree-k benchmark on
        the tree path, mirroring the paper's observation that popular
        values dominate real query mixes.
        """
        order = max(
            (self.preference()[name].order
             for name in self.dataset.schema.nominal_names),
            default=0,
        )
        prefs = {}
        for name in self.dataset.schema.nominal_names:
            chain = list(self.template[name].choices)
            for value in self.dataset.most_frequent(
                name, self.dataset.cardinality(name)
            ):
                if len(chain) >= order:
                    break
                if value not in chain:
                    chain.append(value)
            if chain:
                prefs[name] = chain
        return Preference(prefs)


_CACHE: Dict[Tuple, Bundle] = {}


def synthetic_bundle(
    *,
    num_points: int,
    num_nominal: int = 2,
    cardinality: int = 8,
    order: int = 3,
    ipo_k: int = 4,
    seed: int = 0,
    query_count: int = 5,
) -> Bundle:
    """Build (or fetch) the bundle for one synthetic sweep point."""
    key = (
        "synthetic", num_points, num_nominal, cardinality, order, ipo_k, seed,
        query_count,
    )
    if key not in _CACHE:
        config = SyntheticConfig(
            num_points=num_points,
            num_nominal=num_nominal,
            cardinality=cardinality,
            seed=seed,
        )
        dataset = generate(config)
        template = frequent_value_template(dataset)
        _CACHE[key] = _build(dataset, template, order, ipo_k, query_count)
    return _CACHE[key]


def nursery_bundle(order: int, query_count: int = 5) -> Bundle:
    """Build (or fetch) the bundle for one Figure-8 sweep point."""
    key = ("nursery", order, query_count)
    if key not in _CACHE:
        dataset = nursery_dataset()
        template = Preference.empty()
        _CACHE[key] = _build(dataset, template, order, 4, query_count)
    return _CACHE[key]


def _build(
    dataset: Dataset,
    template: Preference,
    order: int,
    ipo_k: int,
    query_count: int,
) -> Bundle:
    return Bundle(
        dataset=dataset,
        template=template,
        tree=IPOTree.build(dataset, template, engine="mdc"),
        tree_k=IPOTree.build(
            dataset, template, engine="mdc", values_per_attribute=ipo_k
        ),
        adaptive=AdaptiveSFS(dataset, template),
        direct=SFSDirect(dataset, template),
        preferences=generate_preferences(
            dataset, order, query_count, template=template, seed=17
        ),
    )


def attach_panels(benchmark, bundle: Bundle) -> None:
    """Record the storage panel (c) and proportions panel (d)."""
    sky = max(1, len(bundle.tree.skyline_ids))
    pref = bundle.preference()
    benchmark.extra_info.update(
        {
            "storage_ipo_bytes": bundle.tree.storage_bytes(),
            "storage_ipo_k_bytes": bundle.tree_k.storage_bytes(),
            "storage_sfs_a_bytes": bundle.adaptive.storage_bytes(),
            "sky_ratio": len(bundle.tree.skyline_ids) / max(1, len(bundle.dataset)),
            "affect_ratio": bundle.adaptive.affect_count(pref) / sky,
            "refined_sky_ratio": len(bundle.adaptive.query(pref)) / sky,
        }
    )
