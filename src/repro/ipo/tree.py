"""IPO-tree construction and the public :class:`IPOTree` index.

Section 3 of the paper.  The tree materialises, per combination of
first-order preferences over the nominal dimensions, the set of
root-skyline points that combination disqualifies; queries of any order
are then answered via the merging property (Theorem 2) without touching
the base data.

Two construction engines are provided:

* ``"direct"`` - runs a skyline computation (over the root skyline
  ``S``, not the full dataset) per node.  Simple, used as ground truth.
* ``"mdc"`` - the paper's approach: compute the minimal disqualifying
  conditions of every root-skyline point once, then evaluate each node's
  ``A`` by containment tests only (Section 3.1, "Implementation").

``IPO Tree-k`` (the paper's *IPO Tree-10*) restricts each dimension's
children to the ``k`` most frequent values; queries touching other
values raise :class:`~repro.exceptions.UnsupportedQueryError` so that a
hybrid deployment can fall back to Adaptive SFS (Section 5.3).

Template semantics
------------------
The root stores ``SKY(R)`` for the template ``R``.  A node labelled
``v < *`` *overrides* the template's chain on its dimension (needed
because Theorem 2 decomposes a chain ``v1 < ... < vx < *`` into the
standalone first-order preferences ``vi < *``, which are not themselves
refinements of the template); unlabelled dimensions keep the template's
chain.  Since answered queries must refine the template, all results
are subsets of ``S`` and cumulative ``A`` sets relative to ``S``
suffice - see DESIGN.md for the full argument.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.algorithms.sfs import sfs_skyline
from repro.core.dataset import Dataset
from repro.core.dominance import RankTable
from repro.core.preferences import ImplicitPreference, Preference
from repro.engine import resolve_backend
from repro.exceptions import PreferenceError, UnsupportedQueryError
from repro.ipo.node import IPONode
from repro.ipo.query import evaluate_bitmap, evaluate_sets, evaluate_survivors
from repro.mdc.mdc import ConditionStore, template_positions

#: Analytic storage model: bytes per stored point id (paper counts 4-byte
#: ids) and fixed per-node overhead (label + two pointers' worth).
_BYTES_PER_ID = 4
_BYTES_PER_NODE = 16


@dataclass(frozen=True)
class TreeStats:
    """Statistics of the last :meth:`IPOTree.build` or :meth:`IPOTree.refresh`."""

    engine: str
    payload: str
    node_count: int
    skyline_size: int
    build_seconds: float
    storage_bytes: int


class IPOTree:
    """The partial-materialisation index of Section 3.

    Build with :meth:`build`; query with :meth:`query`.

    Examples
    --------
    >>> from repro.core.attributes import Schema, numeric_min, numeric_max, nominal
    >>> from repro.core.dataset import Dataset
    >>> from repro.core.preferences import Preference
    >>> schema = Schema([numeric_min("Price"), numeric_max("Class"),
    ...                  nominal("Group", ["T", "H", "M"]),
    ...                  nominal("Airline", ["G", "R", "W"])])
    >>> data = Dataset(schema, [
    ...     (1600, 4, "T", "G"), (2400, 1, "T", "G"), (3000, 5, "H", "G"),
    ...     (3600, 4, "H", "R"), (2400, 2, "M", "R"), (3000, 3, "M", "W")])
    >>> tree = IPOTree.build(data)
    >>> sorted(tree.skyline_ids)          # S at the root (a, c, d, e, f)
    [0, 2, 3, 4, 5]
    >>> tree.query(Preference({"Group": "M < *", "Airline": "G < *"}))
    [0, 2, 4, 5]
    """

    name = "IPO Tree"

    def __init__(
        self,
        dataset: Dataset,
        template: Preference,
        candidates: Tuple[Tuple[int, ...], ...],
        payload: str,
        builder,
        engine: str,
        started: float,
    ) -> None:
        self.dataset = dataset
        self.template = template
        self.nominal_dims = dataset.schema.nominal_indices
        self.candidates = candidates
        self.payload = payload
        self._grow_from(builder, engine, started)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        dataset: Dataset,
        template: Optional[Preference] = None,
        *,
        engine: str = "mdc",
        payload: str = "set",
        values_per_attribute: Union[None, int, Mapping[str, int]] = None,
        backend=None,
        conditions: Optional[ConditionStore] = None,
    ) -> "IPOTree":
        """Construct the IPO-tree for ``dataset`` under ``template``.

        ``dataset`` may be a :class:`Dataset` or anything exposing
        ``schema`` / ``canonical_rows`` / ``ids`` / ``columns`` (e.g. a
        :class:`~repro.updates.dataset.DynamicDataset`, whose dead slots
        are never read).

        Parameters
        ----------
        engine:
            ``"mdc"`` (paper's construction, default) or ``"direct"``.
        backend:
            Execution backend for the construction-time skyline runs
            and MDC computation (name, instance or ``None`` for the
            process default).
        payload:
            ``"set"`` stores each ``A`` as a frozenset of ids;
            ``"bitmap"`` additionally packs them into integer bit masks
            and answers queries with bitwise operations (the paper's
            "another efficient implementation").
        values_per_attribute:
            ``None`` for the full tree; an int ``k`` (or mapping
            ``attribute name -> k``) builds *IPO Tree-k* over the ``k``
            most frequent values per nominal attribute.  A mapping may
            also give an explicit list of values per attribute (e.g.
            from :func:`repro.datagen.queries.popular_values_from_history`).
            Template values are always kept so template refinements
            stay answerable.
        conditions:
            A :class:`~repro.mdc.mdc.ConditionStore` already computed
            over ``dataset`` for the template skyline (its ``ids``),
            e.g. from a caller's maintained skylines; it skips the
            skyline scan and the MDC computation.  Trusted as-is, and
            only with the ``"mdc"`` engine.
        """
        if engine not in ("mdc", "direct"):
            raise PreferenceError(f"unknown construction engine {engine!r}")
        if payload not in ("set", "bitmap"):
            raise PreferenceError(f"unknown payload {payload!r}")
        if conditions is not None and engine != "mdc":
            raise PreferenceError("conditions= needs the 'mdc' engine")
        template = template if template is not None else Preference.empty()
        template.validate_against(dataset.schema)

        started = time.perf_counter()
        engine_backend = resolve_backend(backend)
        if engine == "direct":
            builder = _DirectBuilder(
                dataset,
                template,
                _template_skyline(dataset, template, engine_backend),
                backend=engine_backend,
            )
        else:
            if conditions is None:
                conditions = ConditionStore.compute(
                    dataset,
                    _template_skyline(dataset, template, engine_backend),
                    backend=engine_backend,
                )
            builder = _MDCBuilder(conditions, template, dataset.schema)
        return cls(
            dataset,
            template,
            _candidate_values(dataset, template, values_per_attribute),
            payload,
            builder,
            engine,
            started,
        )

    def refresh(self, data, conditions: ConditionStore) -> None:
        """Regrow every node in place over mutated ``data``.

        ``conditions`` is a :class:`~repro.mdc.mdc.ConditionStore`
        computed over ``data`` for its current template skyline (the
        store's ``ids``, which become the new root skyline ``S``).  The
        nodes are regrown with the ``"mdc"`` engine over the tree's
        existing ``candidates`` - an IPO Tree-k keeps the values it
        materialised - so every node holds the set a fresh :meth:`build`
        over ``data`` with those values would give.  The serving layer
        computes the store once from its maintained skylines and shares
        it with the MDC filter, so a regrow never scans the base data.
        """
        started = time.perf_counter()
        self.dataset = data
        self._grow_from(
            _MDCBuilder(conditions, self.template, data.schema), "mdc", started
        )

    def _grow_from(self, builder, engine: str, started: float) -> None:
        """Grow every node from ``builder``; reset ``S`` and the stats."""
        root = IPONode(None, frozenset())
        _grow(root, 0, {}, self.nominal_dims, self.candidates, builder)
        skyline_ids = builder.skyline_ids
        self.root = root
        self.skyline_ids: Tuple[int, ...] = skyline_ids
        #: The condition store the nodes were grown from; ``None`` for
        #: a ``"direct"``-engine build.
        self.conditions: Optional[ConditionStore] = builder.conditions
        self._positions: Dict[int, int] = {
            point_id: pos for pos, point_id in enumerate(skyline_ids)
        }
        # Bitmap support structures (filled lazily for the set payload).
        self._value_masks: Optional[List[Dict[int, int]]] = None
        self.stats = TreeStats(
            engine=engine,
            payload=self.payload,
            node_count=root.subtree_size(),
            skyline_size=len(skyline_ids),
            build_seconds=time.perf_counter() - started,
            storage_bytes=_storage_bytes(root, self.payload, len(skyline_ids)),
        )
        if self.payload == "bitmap":
            self._attach_masks()

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def query(self, preference: Optional[Preference] = None) -> List[int]:
        """Skyline ids for ``preference`` (Algorithm 1 + Theorem 2).

        The preference must refine the template; dimensions it leaves
        empty inherit the template's chain.  Raises
        :class:`UnsupportedQueryError` when the query names a value the
        tree has no node for (possible with IPO Tree-k).
        """
        chains = self._query_chains(preference)
        if self.payload == "bitmap":
            mask = evaluate_bitmap(self, chains)
            return [
                point_id
                for pos, point_id in enumerate(self.skyline_ids)
                if not (mask >> pos) & 1
            ]
        disqualified = evaluate_sets(self, chains)
        return [p for p in self.skyline_ids if p not in disqualified]

    def query_survivors(
        self, preference: Optional[Preference] = None
    ) -> List[int]:
        """Answer via the literal Algorithm 1/2 transcription.

        Same result as :meth:`query`; exists as the executable
        reference for the paper's printed pseudocode (survivor sets
        instead of accumulated disqualified sets).
        """
        chains = self._query_chains(preference)
        return sorted(evaluate_survivors(self, chains))

    def _query_chains(
        self, preference: Optional[Preference]
    ) -> Tuple[Tuple[int, ...], ...]:
        """Translate a preference into per-dimension value-id chains.

        Merges over the template (validating refinement) and checks that
        every chain value has a materialised node.
        """
        pref = preference if preference is not None else Preference.empty()
        merged = pref.merged_over(self.template)
        merged.validate_against(self.dataset.schema)
        chains: List[Tuple[int, ...]] = []
        for depth, dim in enumerate(self.nominal_dims):
            spec = self.dataset.schema[dim]
            chain = merged[spec.name]
            vids = tuple(
                spec.domain.index(value) for value in chain.choices  # type: ignore[union-attr]
            )
            available = set(self.candidates[depth])
            missing = [v for v in vids if v not in available]
            if missing:
                names = [spec.domain[v] for v in missing]  # type: ignore[index]
                raise UnsupportedQueryError(
                    f"IPO tree has no nodes for values {names!r} of "
                    f"attribute {spec.name!r} (built with restricted "
                    "values; route this query to Adaptive SFS)"
                )
            chains.append(vids)
        return tuple(chains)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def node_count(self) -> int:
        """Total number of tree nodes (the paper's ``O(c^m')`` figure)."""
        return self.stats.node_count

    def storage_bytes(self) -> int:
        """Analytic storage footprint of the materialised tree."""
        return self.stats.storage_bytes

    def value_masks(self) -> List[Dict[int, int]]:
        """Per-depth inverted bit masks: value id -> mask over S positions.

        Used by the bitmap evaluator to compute ``PSKY`` lookups with a
        single OR; built lazily.
        """
        if self._value_masks is None:
            rows = self.dataset.canonical_rows
            masks: List[Dict[int, int]] = []
            for dim in self.nominal_dims:
                per_value: Dict[int, int] = {}
                for pos, point_id in enumerate(self.skyline_ids):
                    vid = rows[point_id][dim]
                    per_value[vid] = per_value.get(vid, 0) | (1 << pos)
                masks.append(per_value)
            self._value_masks = masks
        return self._value_masks

    def _attach_masks(self) -> None:
        """Fill every node's ``mask`` from its frozenset payload."""
        positions = self._positions
        for node in self.root.walk():
            mask = 0
            for point_id in node.disqualified:
                mask |= 1 << positions[point_id]
            node.mask = mask


# ----------------------------------------------------------------------
# construction helpers
# ----------------------------------------------------------------------
def _template_skyline(dataset, template: Preference, backend) -> Tuple[int, ...]:
    """The root skyline ``S = SKY(R~)``, ascending."""
    table = RankTable.compile(dataset.schema, None, template)
    store = dataset.columns if backend.vectorized else None
    return tuple(
        sorted(
            sfs_skyline(
                dataset.canonical_rows, dataset.ids, table,
                backend=backend, store=store,
            )
        )
    )


class _DirectBuilder:
    """Disqualified sets via a skyline run over ``S`` per node."""

    conditions = None

    def __init__(
        self,
        dataset: Dataset,
        template: Preference,
        skyline_ids: Tuple[int, ...],
        backend=None,
    ) -> None:
        self._dataset = dataset
        self._template = template
        self.skyline_ids = skyline_ids
        self._skyline_set = frozenset(skyline_ids)
        self._backend = resolve_backend(backend)
        self._store = (
            dataset.columns if self._backend.vectorized else None
        )

    def disqualified(self, labels: Mapping[int, int]) -> frozenset:
        schema = self._dataset.schema
        pref = self._template
        for dim, vid in labels.items():
            spec = schema[dim]
            pref = pref.with_dimension(
                spec.name, ImplicitPreference((spec.domain[vid],))  # type: ignore[index]
            )
        table = RankTable.compile(schema, pref)
        surviving = sfs_skyline(
            self._dataset.canonical_rows,
            self.skyline_ids,
            table,
            backend=self._backend,
            store=self._store,
        )
        return frozenset(self._skyline_set - set(surviving))


class _MDCBuilder:
    """Disqualified sets via minimal disqualifying conditions (paper).

    The root skyline is the store's members, ascending.  A node's
    labels fold into the template positions as one-value chains
    ``{label: 0}``, which :meth:`DisqualifyingCondition.satisfied_by`
    treats exactly like its ``labels`` argument: the winner must be the
    label, and any other loser is unlisted.
    """

    def __init__(
        self, conditions: ConditionStore, template: Preference, schema
    ) -> None:
        self.conditions = conditions
        self.skyline_ids = tuple(sorted(conditions.ids))
        self._template_positions = template_positions(template, schema)

    def disqualified(self, labels: Mapping[int, int]) -> frozenset:
        positions = dict(self._template_positions)
        for dim, vid in labels.items():
            positions[dim] = {vid: 0}
        return frozenset(self.conditions.disqualified(positions))


def _grow(
    node: IPONode,
    depth: int,
    labels: Dict[int, int],
    nominal_dims: Tuple[int, ...],
    candidates: Tuple[Tuple[int, ...], ...],
    builder,
) -> None:
    """Recursively create the children of ``node`` for dimension ``depth``."""
    if depth == len(nominal_dims):
        return
    dim = nominal_dims[depth]
    for vid in candidates[depth]:
        labels[dim] = vid
        child = IPONode((dim, vid), builder.disqualified(labels))
        node.children[vid] = child
        _grow(child, depth + 1, labels, nominal_dims, candidates, builder)
        del labels[dim]
    phi = IPONode(None, node.disqualified)
    node.phi_child = phi
    _grow(phi, depth + 1, labels, nominal_dims, candidates, builder)


def _candidate_values(
    dataset,
    template: Preference,
    values_per_attribute: Union[None, int, Mapping[str, int]],
) -> Tuple[Tuple[int, ...], ...]:
    """Value ids materialised per nominal dimension (IPO Tree-k support)."""
    schema = dataset.schema
    rows = dataset.canonical_rows
    out: List[Tuple[int, ...]] = []
    for dim in schema.nominal_indices:
        spec = schema[dim]
        domain = spec.domain
        if values_per_attribute is None:
            keep: Sequence[object] = domain  # type: ignore[assignment]
        else:
            if isinstance(values_per_attribute, int):
                wanted: object = values_per_attribute
            else:
                wanted = values_per_attribute.get(spec.name, len(domain))  # type: ignore[union-attr]
            if isinstance(wanted, int):
                if wanted <= 0:
                    raise PreferenceError(
                        f"values_per_attribute must be positive, got {wanted}"
                    )
                # Ties broken by domain order, as Dataset.most_frequent;
                # counted over the live ids of a dynamic dataset.
                counts = Counter(rows[i][dim] for i in dataset.ids)
                ranked = sorted(
                    range(len(domain)), key=lambda v: (-counts[v], v)  # type: ignore[arg-type]
                )
                keep = [domain[v] for v in ranked[:wanted]]  # type: ignore[index]
            else:
                # Explicit value list (e.g. mined from a query history).
                keep = list(wanted)
                for value in keep:
                    if value not in domain:  # type: ignore[operator]
                        raise PreferenceError(
                            f"value {value!r} not in domain of {spec.name!r}"
                        )
            # Template values must stay materialised: every legal query
            # chain starts with them.
            for value in template[spec.name].choices:
                if value not in keep:
                    keep = list(keep) + [value]
        out.append(tuple(domain.index(v) for v in keep))  # type: ignore[union-attr]
    return tuple(out)


def _storage_bytes(root: IPONode, payload: str, skyline_size: int) -> int:
    """Analytic storage of the tree (see module constants)."""
    total = 0
    mask_bytes = (skyline_size + 7) // 8
    for node in root.walk():
        total += _BYTES_PER_NODE
        if payload == "bitmap":
            total += mask_bytes
        else:
            total += _BYTES_PER_ID * len(node.disqualified)
    return total
