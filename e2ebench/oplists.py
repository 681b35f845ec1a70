"""The fixed corpus and the seeded operation lists of the four workloads.

The data is one fixed synthetic corpus per size (``CORPUS_SEED``): the
cost of a skyline query depends strongly on the data (the template
skyline of the 20k-row set has 327 to 476 members over generator seeds
0-5, and cold-query p50 moved 0.92-1.38 ms with it), so seeding the
data would make runs with different ``--seed`` measure different
problems.  ``--seed`` drives everything
else - preference pools and streams, inserted rows, deleted ids - and
thousands of operations per run average the per-query differences out.

Every list is a pure function of ``(seed, seconds)``: its length comes
from ``seconds`` times a per-workload rate constant, never from a clock,
so two runs with the same arguments issue identical operations (a
time-bounded loop let the churn WAL tail swing from 66 to 200 batches
and ``recover_s`` from 4.6 s to 13.7 s).  The program only ever sees
the generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.dataset import Dataset
from repro.core.preferences import ImplicitPreference, Preference
from repro.datagen.generator import SyntheticConfig, frequent_value_template, generate

#: Generator seed of the fixed corpus.
CORPUS_SEED = 0
#: The shared schema: 2 numeric + 3 nominal attributes, cardinality 10.
NUMERIC = 2
NOMINAL = 3
CARDINALITY = 10
SMALL_ROWS = 20_000
SCAN_ROWS = 200_000
TEMPLATE_ORDER = 1
IPO_K = 7
CACHE_CAPACITY = 256
ORDER = 3

#: Operations per requested second, calibrated on the reference host so
#: a run measures for about ``--seconds`` at reference speed.
WIRE_READS_PER_S = 700
COLD_READS_PER_S = 900
SCAN_READS_PER_S = 10
#: Churn cycles per second: 10 s gives 1,010 cycles, so the insert,
#: read and delete p99 each have more than 10 samples beyond them.
CHURN_CYCLES_PER_S = 100

#: Every list has at least this many reads, so a tail with 10 samples
#: beyond it exists even for the shortest smoke run.
MIN_OPS = 20

WIRE_POOL = 32
CHURN_POOL = 16
CHURN_INSERTS = 4
CHURN_READS = 4
CHURN_DELETES = 2
#: Flush policy of the churn workload: the service fsyncs the WAL per
#: batch (its default) and folds it into a snapshot every this many
#: batches.  Cycle counts are rounded so every run ends with the same
#: WAL tail of ``CHURN_TAIL_CYCLES`` cycles (2 batches each).
CHECKPOINT_EVERY = 250
CHURN_TAIL_CYCLES = 10


def dataset_config(rows: int, seed: int) -> SyntheticConfig:
    """The shared schema at ``rows`` rows, drawn from ``seed``."""
    return SyntheticConfig(
        num_points=rows,
        num_numeric=NUMERIC,
        num_nominal=NOMINAL,
        cardinality=CARDINALITY,
        seed=seed,
    )


def build_dataset(rows: int, seed: int = CORPUS_SEED) -> Tuple[Dataset, Preference]:
    """The dataset and its frequent-value template (the paper's default)."""
    dataset = generate(dataset_config(rows, seed))
    return dataset, frequent_value_template(dataset, TEMPLATE_ORDER)


def op_count(rate: int, seconds: int) -> int:
    """Fixed operation count for a run of ``seconds``."""
    return max(MIN_OPS, rate * seconds)


class PreferenceDrawer:
    """Draws order-3 preferences refining the template.

    Each nominal attribute gets the template's chain extended to
    ``ORDER`` values; extensions are drawn without replacement with
    probability proportional to value frequency, as in the paper's
    query generator.  Owned by the benchmark so the inputs stay fixed
    when the program's own generators change.
    """

    def __init__(self, dataset: Dataset, template: Preference) -> None:
        self._attrs: List[Tuple[str, Tuple[object, ...], List[object], List[int]]] = []
        for name in dataset.schema.nominal_names:
            counts = dataset.value_counts(name)
            base = tuple(template[name].choices)
            values = [v for v in dataset.schema.spec(name).domain if v not in base]
            self._attrs.append((name, base, values, [counts.get(v, 0) + 1 for v in values]))

    def chains(self, rng: random.Random) -> Tuple[Tuple[object, ...], ...]:
        out = []
        for _name, base, values, weights in self._attrs:
            values, weights = list(values), list(weights)
            chain = list(base)
            while len(chain) < ORDER and values:
                i = rng.choices(range(len(values)), weights=weights)[0]
                chain.append(values.pop(i))
                weights.pop(i)
            out.append(tuple(chain))
        return tuple(out)

    def preference(self, chains: Sequence[Tuple[object, ...]]) -> Preference:
        return Preference({
            name: ImplicitPreference(chain)
            for (name, _b, _v, _w), chain in zip(self._attrs, chains)
        })

    def distinct(self, rng: random.Random, count: int) -> List[Preference]:
        """``count`` preferences with pairwise distinct chains."""
        seen = set()
        out = []
        while len(out) < count:
            chains = self.chains(rng)
            if chains in seen:
                continue
            seen.add(chains)
            out.append(chains)
        return [self.preference(c) for c in out]


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{stream}:{seed}")


def zipf_draws(rng: random.Random, pool_size: int, count: int) -> List[int]:
    """``count`` pool indexes, Zipf-skewed (weight ``1 / (rank + 1)``)."""
    weights = [1.0 / (rank + 1) for rank in range(pool_size)]
    return rng.choices(range(pool_size), weights=weights, k=count)


def warm_preferences(drawer: PreferenceDrawer, seed: int, count: int = 4) -> List[Preference]:
    """A fixed warm-up list drawn from its own stream (never timed)."""
    return drawer.distinct(_rng(seed, "warm"), count)


@dataclass
class HotOps:
    """A preference pool and the Zipf-drawn pool index of every read."""

    pool: List[Preference]
    reads: List[int]


def hot_pool(drawer: PreferenceDrawer, size: int) -> List[Preference]:
    """A fixed pool of hot preferences, the same for every ``--seed``.

    A hot read's cost depends on its answer (a cached wire answer is
    re-encoded per request), and with a few dozen entries under Zipf
    weights the top ranks dominate; a seeded pool made runs differ by
    which preferences happened to rank first.  The seed drives the
    draw sequence instead.
    """
    return drawer.distinct(_rng(CORPUS_SEED, f"pool{size}"), size)


def wire_ops(drawer: PreferenceDrawer, seed: int, seconds: int) -> HotOps:
    """wire-hot: Zipf draws over 32 preferences (all fit the cache)."""
    reads = zipf_draws(_rng(seed, "wire"), WIRE_POOL, op_count(WIRE_READS_PER_S, seconds))
    return HotOps(hot_pool(drawer, WIRE_POOL), reads)


def cold_ops(drawer: PreferenceDrawer, seed: int, seconds: int) -> List[Preference]:
    """cold-indexed: distinct preferences, many more than the cache holds."""
    return drawer.distinct(_rng(seed, "cold"), op_count(COLD_READS_PER_S, seconds))


def scan_ops(drawer: PreferenceDrawer, seed: int, seconds: int) -> List[Preference]:
    """scan-kernel: distinct preferences (the cache is off anyway)."""
    return drawer.distinct(_rng(seed, "scan"), op_count(SCAN_READS_PER_S, seconds))


@dataclass
class ChurnCycle:
    """One churn cycle: insert 4 rows, read 4 pool entries, delete 2 ids."""

    rows: List[Tuple[object, ...]]
    expected_ids: List[int]
    reads: List[int]
    deletes: List[int]


@dataclass
class ChurnOps:
    pool: List[Preference]
    cycles: List[ChurnCycle]


def churn_cycle_count(seconds: int) -> int:
    """Cycle count: whole checkpoint periods plus a fixed WAL tail."""
    per_period = CHECKPOINT_EVERY // 2  # two logged batches per cycle
    periods = max(1, round(CHURN_CYCLES_PER_S * seconds / per_period))
    return periods * per_period + CHURN_TAIL_CYCLES


def churn_ops(
    drawer: PreferenceDrawer, first_id: int, seed: int, seconds: int
) -> ChurnOps:
    """churn-durable: the fixed cycle list over a dataset of ``first_id`` rows.

    Inserted rows come from the same generator as the base data (a
    separate seed stream); deleted ids are drawn from the ids live at
    that point, simulated here - the service assigns appended rows the
    next free ids and never reuses a deleted one.
    """
    rng = _rng(seed, "churn")
    pool = hot_pool(drawer, CHURN_POOL)
    cycles_n = churn_cycle_count(seconds)
    extra = generate(dataset_config(cycles_n * CHURN_INSERTS, seed + 1_000_003))
    fresh = list(extra)
    live = list(range(first_id))
    next_id = first_id
    cycles = []
    for c in range(cycles_n):
        rows = [tuple(r) for r in fresh[c * CHURN_INSERTS:(c + 1) * CHURN_INSERTS]]
        expected = list(range(next_id, next_id + CHURN_INSERTS))
        next_id += CHURN_INSERTS
        live.extend(expected)
        reads = zipf_draws(rng, CHURN_POOL, CHURN_READS)
        deletes = []
        for _ in range(CHURN_DELETES):
            i = rng.randrange(len(live))
            live[i], live[-1] = live[-1], live[i]
            deletes.append(live.pop())
        cycles.append(ChurnCycle(rows, expected, reads, deletes))
    return ChurnOps(pool, cycles)


def describe(ops) -> Dict[str, object]:
    """A comparable summary of an op list (used by the self-tests)."""
    def pref_key(p: Preference):
        return tuple((name, tuple(chain.choices)) for name, chain in p.items())
    if isinstance(ops, HotOps):
        return {"pool": [pref_key(p) for p in ops.pool], "reads": ops.reads}
    if isinstance(ops, ChurnOps):
        return {
            "pool": [pref_key(p) for p in ops.pool],
            "cycles": [(c.rows, c.expected_ids, c.reads, c.deletes) for c in ops.cycles],
        }
    return {"prefs": [pref_key(p) for p in ops]}
