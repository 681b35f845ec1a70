#!/usr/bin/env python
"""Quickstart: the paper's running example, end to end.

Recreates Tables 1-3 of Wong et al. - six Cancun vacation packages with
numeric attributes (Price, Hotel-class) and nominal attributes
(Hotel-group, Airline) - and answers every customer's skyline query of
Table 2 three ways:

1. one-shot :func:`repro.skyline`,
2. the IPO-tree index (Section 3),
3. the Adaptive SFS index (Section 4),
4. the serving layer (:class:`repro.SkylineService`): planner +
   semantic cache behind one entry point,
5. batched evaluation (``submit_batch``: dedup + shared passes).

Run:  python examples/quickstart.py
(no install or PYTHONPATH needed - see _bootstrap.py)
"""

import _bootstrap  # noqa: F401  makes `import repro` work from a checkout

from repro import (
    AdaptiveSFS,
    Dataset,
    IPOTree,
    Preference,
    Schema,
    SkylineService,
    available_backends,
    get_backend,
    nominal,
    numeric_max,
    numeric_min,
    skyline,
)

PACKAGE_NAMES = "abcdef"


def build_table1() -> Dataset:
    """Table 1: Price, Hotel-class, Hotel-group (Table 2's queries)."""
    schema = Schema(
        [
            numeric_min("Price"),
            numeric_max("Hotel-class"),
            nominal("Hotel-group", ["T", "H", "M"]),
        ]
    )
    return Dataset(
        schema,
        [
            (1600, 4, "T"),  # a
            (2400, 1, "T"),  # b
            (3000, 5, "H"),  # c
            (3600, 4, "H"),  # d
            (2400, 2, "M"),  # e
            (3000, 3, "M"),  # f
        ],
    )


def build_table3() -> Dataset:
    """Table 3: the same packages with the extra Airline attribute."""
    schema = Schema(
        [
            numeric_min("Price"),
            numeric_max("Hotel-class"),
            nominal("Hotel-group", ["T", "H", "M"]),
            nominal("Airline", ["G", "R", "W"]),
        ]
    )
    return Dataset(
        schema,
        [
            (1600, 4, "T", "G"),  # a
            (2400, 1, "T", "G"),  # b
            (3000, 5, "H", "G"),  # c
            (3600, 4, "H", "R"),  # d
            (2400, 2, "M", "R"),  # e
            (3000, 3, "M", "W"),  # f
        ],
    )


def names(ids) -> str:
    return "{" + ", ".join(sorted(PACKAGE_NAMES[i] for i in ids)) + "}"


def main() -> None:
    table1 = build_table1()
    packages = build_table3()

    print("Vacation packages (Table 1):")
    for i, row in enumerate(table1):
        print(f"  {PACKAGE_NAMES[i]}: {row}")

    # --- Table 2: every customer gets a different skyline ----------
    customers = {
        "Alice  (T < M < *)": Preference({"Hotel-group": "T < M < *"}),
        "Bob    (no preference)": None,
        "Chris  (H < M < *)": Preference({"Hotel-group": "H < M < *"}),
        "David  (H < M < T)": Preference({"Hotel-group": "H < M < T"}),
        "Emily  (H < T < *)": Preference({"Hotel-group": "H < T < *"}),
        "Fred   (M < *)": Preference({"Hotel-group": "M < *"}),
    }
    print("\nCustomer skylines (Table 2):")
    for who, pref in customers.items():
        result = skyline(table1, pref)
        print(f"  {who}: {names(result.ids)}")

    print("\nAdding the Airline attribute (Table 3) ...")

    # --- The two indexes answer the same queries online ----------------
    tree = IPOTree.build(packages)
    index = AdaptiveSFS(packages)
    print(f"\nIPO-tree built: {tree.node_count()} nodes, "
          f"root skyline {names(tree.skyline_ids)}")
    print(f"Adaptive SFS built: {len(index.skyline_ids)} presorted "
          "skyline members")

    # Example 1's richest query, QD: "M < H < *, G < R < *".
    qd = Preference({"Hotel-group": "M < H < *", "Airline": "G < R < *"})
    print(f"\nQuery QD ({qd}):")
    print(f"  IPO-tree     -> {names(tree.query(qd))}")
    print(f"  Adaptive SFS -> {names(index.query(qd))}")
    print(f"  one-shot     -> {names(skyline(packages, qd).ids)}")

    # Progressive evaluation: results stream out in score order.
    print("\nProgressive SFS-A emission for QD:",
          " -> ".join(PACKAGE_NAMES[i] for i in index.iter_query(qd)))

    # --- Execution backends -------------------------------------------
    # Every query above ran on the default execution backend (the
    # vectorized NumPy engine when NumPy is installed, pure Python
    # otherwise).  Backends are interchangeable per call and always
    # return the same skyline; REPRO_BACKEND=python flips the default
    # process-wide, and `pip install repro[fast]` pulls in NumPy.
    print(f"\nAvailable backends: {', '.join(available_backends())}"
          f" (default: {get_backend().name})")
    chris = Preference({"Hotel-group": "M < H < *"})
    for backend in available_backends():
        result = skyline(table1, chris, backend=backend)
        print(f"  backend={backend:<7} -> {names(result.ids)}")

    # --- The serving layer --------------------------------------------
    # In a deployment nobody calls the indexes directly: SkylineService
    # plans a route per query (IPO-tree lookup, Adaptive SFS, MDC
    # refinement or a direct kernel run) and caches answers under the
    # *canonical* preference, so differently spelled but semantically
    # equal preferences hit.
    service = SkylineService(packages, cache_capacity=16)
    print("\nServing layer (planner + semantic cache):")
    first = service.query(qd)
    print(f"  QD via route {first.route!r:<9} -> {names(first.ids)}"
          f"   ({first.reason})")
    again = service.query(qd)
    print(f"  QD repeated  {again.route!r:<9} -> cached={again.cached}")
    # "M < H < T < *" lists the whole Hotel-group domain, which is the
    # same partial order as "M < H < *" - the semantic cache knows.
    spelled = Preference({"Hotel-group": "M < H < T",
                          "Airline": "G < R < *"})
    alias = service.query(spelled)
    print(f"  QD respelled {alias.route!r:<9} -> cached={alias.cached}"
          f"  (full-domain chain aliases its prefix)")
    stats = service.stats()
    print(f"  served {stats.queries} queries, cache hit-rate "
          f"{stats.cache.hit_rate:.0%}")

    # --- Batched evaluation -------------------------------------------
    # A front-end that collects concurrent arrivals can hand the whole
    # batch to the service: keys are canonicalized up front, duplicate
    # partial orders execute once (route "batch"), and the rest runs
    # grouped by route.  Answers are positional and identical to
    # query()-ing one at a time.
    batch_service = SkylineService(packages, cache_capacity=16)
    arrivals = [qd, spelled, Preference({"Hotel-group": "T < M < *"}),
                qd, None, Preference({"Hotel-group": "T < M"})]
    batch = batch_service.submit_batch(arrivals, use_cache=False)
    print("\nBatched evaluation (6 arrivals):")
    print(f"  unique partial orders: {batch.unique_queries}, "
          f"deduplicated: {batch.duplicate_queries}")
    for pref, result in zip(arrivals, batch.results):
        label = str(pref) if pref is not None else "(no preference)"
        print(f"  {label:<36} -> {names(result.ids)}  via {result.route}")


if __name__ == "__main__":
    main()
