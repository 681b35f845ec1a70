"""Backend equivalence: the numpy engine must match the reference.

Property-based cross-checks (hypothesis) over randomized datasets and
preferences assert that both registered backends return identical
skylines and identical dominance verdicts - including the paper's
Section 4.2 subtlety that two *distinct* unlisted nominal values share
the default rank yet are incomparable.  Also covers the registry
(selection, env var, fallback) and the columnar store itself.

Every numpy-dependent test is skipped when NumPy is absent, so the
suite stays green on the pure-Python CI leg.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import ALGORITHMS
from repro.core.attributes import Schema, nominal, numeric_min
from repro.core.dataset import Dataset
from repro.core.dominance import RankTable
from repro.core.preferences import ImplicitPreference, Preference
from repro.core.skyline import skyline
from repro.datagen.generator import SyntheticConfig, generate
from repro.engine import (
    BACKEND_ENV_VAR,
    available_backends,
    default_backend_name,
    get_backend,
    numpy_available,
    registered_backends,
    resolve_backend,
    set_default_backend,
)
from repro.engine.base import Backend
from repro.exceptions import EngineError
from repro.mdc.mdc import compute_mdcs

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed"
)

DOMAIN_A = ("a0", "a1", "a2", "a3")
DOMAIN_B = ("b0", "b1", "b2")

SCHEMA = Schema(
    [
        numeric_min("x"),
        numeric_min("y"),
        nominal("A", DOMAIN_A),
        nominal("B", DOMAIN_B),
    ]
)

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Small integer coordinates force ties and duplicates; small domains
# force dense preference interactions - the regimes where the unlisted-
# value tie-break and duplicate handling hide bugs.
rows_strategy = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 3),
        st.sampled_from(DOMAIN_A),
        st.sampled_from(DOMAIN_B),
    ),
    min_size=1,
    max_size=40,
)


def chain_strategy(domain):
    return st.lists(
        st.sampled_from(domain), unique=True, min_size=0, max_size=len(domain)
    )


preference_strategy = st.builds(
    lambda a, b: Preference(
        {"A": ImplicitPreference(tuple(a)), "B": ImplicitPreference(tuple(b))}
    ),
    chain_strategy(DOMAIN_A),
    chain_strategy(DOMAIN_B),
)


@needs_numpy
class TestBackendEquivalence:
    """Both backends agree on every kernel output."""

    @given(rows=rows_strategy, pref=preference_strategy)
    @SETTINGS
    def test_skylines_identical_across_backends_and_algorithms(
        self, rows, pref
    ):
        dataset = Dataset(SCHEMA, rows)
        reference = skyline(dataset, pref, backend="python").ids
        for algorithm in ("sfs", "bnl", "bruteforce", "dandc", "bitmap"):
            for backend in ("python", "numpy", "bitset"):
                result = skyline(
                    dataset, pref, algorithm=algorithm, backend=backend
                )
                assert result.ids == reference, (algorithm, backend)

    @given(rows=rows_strategy, pref=preference_strategy)
    @SETTINGS
    def test_dominance_masks_match_reference(self, rows, pref):
        dataset = Dataset(SCHEMA, rows)
        table = RankTable.compile(SCHEMA, pref)
        ids = list(dataset.ids)
        rows_c = dataset.canonical_rows
        expected_dom = [
            [table.dominates(rows_c[p], rows_c[q]) for q in ids] for p in ids
        ]
        for backend_name in ("python", "numpy"):
            backend = get_backend(backend_name)
            ctx = backend.prepare(rows_c, table)
            for p in ids:
                assert backend.dominates_mask(ctx, p, ids) == expected_dom[p]
                assert backend.any_dominates(ctx, p, ids) == any(
                    expected_dom[q][p] for q in ids
                )
            dominated = backend.dominated_any(ctx, ids, ids)
            assert dominated == [any(expected_dom[q][p] for q in ids) for p in ids]

    @given(rows=rows_strategy, pref=preference_strategy)
    @SETTINGS
    def test_scores_match_reference(self, rows, pref):
        dataset = Dataset(SCHEMA, rows)
        table = RankTable.compile(SCHEMA, pref)
        ids = list(dataset.ids)
        expected = [table.score(dataset.canonical(i)) for i in ids]
        for backend_name in ("python", "numpy"):
            backend = get_backend(backend_name)
            loose = backend.score_rows(
                table, [dataset.canonical(i) for i in ids]
            )
            assert loose == pytest.approx(expected)

    @given(rows=rows_strategy)
    @SETTINGS
    def test_mdc_conditions_identical_across_backends(self, rows):
        dataset = Dataset(SCHEMA, rows)
        via_python = compute_mdcs(dataset, dataset.ids, backend="python")
        via_numpy = compute_mdcs(dataset, dataset.ids, backend="numpy")
        assert via_python == via_numpy


@needs_numpy
class TestUnlistedValueIncomparability:
    """Section 4.2: distinct unlisted values share the default rank but
    are incomparable - on every backend."""

    def dataset(self):
        # Identical numerics; the rows differ only on nominal values
        # that the preference leaves unlisted.
        return Dataset(
            SCHEMA,
            [
                (1, 1, "a1", "b0"),
                (1, 1, "a2", "b0"),
                (0, 0, "a0", "b0"),
            ],
        )

    def test_both_unlisted_rows_stay_in_the_skyline(self):
        data = self.dataset()
        pref = Preference({"A": "a0 < *"})
        for backend in available_backends():
            result = skyline(data, pref, backend=backend)
            # Row 2 dominates nothing nominal-wise relevant... rows 0/1
            # tie on rank but hold distinct unlisted values, so neither
            # is dominated by the other; row 2 dominates both on the
            # numerics only if nominal dim allows - it holds the listed
            # a0, strictly better ranked than unlisted a1/a2.
            assert result.ids == (2,), backend

    def test_unlisted_tie_blocks_dominance_both_ways(self):
        data = self.dataset()
        pref = Preference({"A": "a0 < *"})
        table = RankTable.compile(SCHEMA, pref)
        for backend_name in available_backends():
            backend = get_backend(backend_name)
            ctx = backend.prepare(data.canonical_rows, table)
            # Rows 0 and 1 are incomparable: neither dominates the other,
            # though row 2 dominates both.
            assert backend.dominates_mask(ctx, 0, [1]) == [False]
            assert backend.dominates_mask(ctx, 1, [0]) == [False]
            assert backend.dominated_any(ctx, [0, 1], [0, 1]) == [
                False, False
            ]
            assert backend.dominated_any(ctx, [0, 1], [2]) == [True, True]

    def test_equal_rows_compare_equal_and_never_dominate(self):
        data = Dataset(SCHEMA, [(1, 1, "a1", "b0"), (1, 1, "a1", "b0")])
        table = RankTable.compile(SCHEMA, Preference({"A": "a0 < *"}))
        for backend_name in available_backends():
            backend = get_backend(backend_name)
            ctx = backend.prepare(data.canonical_rows, table)
            # Identical rows: neither is strictly better anywhere.
            assert backend.dominates_mask(ctx, 0, [1]) == [False]
            assert backend.dominates_mask(ctx, 1, [0]) == [False]
            assert backend.dominated_any(ctx, [0, 1], [0, 1]) == [
                False, False
            ]
            assert backend.skyline(ctx, [0, 1]) == [0, 1]


@needs_numpy
class TestLargerRandomizedWorkloads:
    """datagen-driven cross-checks at sizes where blocking kicks in."""

    @pytest.mark.parametrize("distribution", ["independent", "anticorrelated"])
    @pytest.mark.parametrize("order", [0, 2, 4])
    def test_synthetic_skylines_agree(self, distribution, order):
        dataset = generate(
            SyntheticConfig(
                num_points=700,
                num_numeric=2,
                num_nominal=2,
                cardinality=4,
                distribution=distribution,
                seed=order + 7,
            )
        )
        prefs = {}
        for name in dataset.schema.nominal_names:
            domain = dataset.schema.spec(name).domain
            prefs[name] = ImplicitPreference(tuple(domain[:order]))
        preference = Preference(prefs)
        expected = skyline(dataset, preference, backend="python").ids
        got = skyline(dataset, preference, backend="numpy").ids
        assert got == expected
        packed = skyline(dataset, preference, backend="bitset").ids
        assert packed == expected

    def test_indexes_agree_across_backends(self):
        from repro.adaptive.adaptive_sfs import AdaptiveSFS
        from repro.algorithms.sfs_d import SFSDirect
        from repro.datagen.generator import frequent_value_template
        from repro.datagen.queries import generate_preferences

        dataset = generate(
            SyntheticConfig(
                num_points=400, num_nominal=2, cardinality=5, seed=3
            )
        )
        template = frequent_value_template(dataset)
        indexes = {
            name: (
                AdaptiveSFS(dataset, template, backend=name),
                SFSDirect(dataset, template, backend=name),
            )
            for name in ("python", "numpy")
        }
        for preference in generate_preferences(
            dataset, 3, 5, template=template, seed=11
        ):
            answers = {
                (name, kind): index.query(preference)
                for name, pair in indexes.items()
                for kind, index in zip(("adaptive", "direct"), pair)
            }
            reference = answers[("python", "direct")]
            for key, answer in answers.items():
                assert answer == reference, key


class TestBackendRegistry:
    """Selection, defaults, env var and failure modes."""

    def teardown_method(self):
        set_default_backend(None)

    def test_python_backend_always_available(self):
        assert "python" in available_backends()
        assert get_backend("python").name == "python"
        assert get_backend("python").vectorized is False

    def test_registered_backends_lists_both(self):
        assert set(registered_backends()) >= {"numpy", "python"}

    def test_unknown_backend_raises(self):
        with pytest.raises(EngineError):
            get_backend("fortran")

    def test_resolve_accepts_instances_and_names(self):
        backend = get_backend("python")
        assert resolve_backend(backend) is backend
        assert resolve_backend("python") is backend

    def test_set_default_backend(self):
        set_default_backend("python")
        assert default_backend_name() == "python"
        assert get_backend().name == "python"
        set_default_backend(None)

    def test_set_default_backend_validates_eagerly(self):
        with pytest.raises(EngineError):
            set_default_backend("no-such-backend")

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert default_backend_name() == "python"
        assert get_backend().name == "python"

    def test_auto_default_prefers_numpy_else_python(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        expected = "numpy" if numpy_available() else "python"
        assert default_backend_name() == expected

    def test_auto_falls_back_to_python_without_numpy(self, monkeypatch):
        import repro.engine.base as base

        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        monkeypatch.setattr(base, "numpy_available", lambda: False)
        assert base.default_backend_name() == "python"

    def test_skyline_rejects_unknown_backend(self, vacation_data):
        with pytest.raises(EngineError):
            skyline(vacation_data, backend="no-such-backend")


@needs_numpy
class TestColumnarStore:
    """The dataset-cached column-major twin of the canonical rows."""

    def test_columns_match_canonical_rows(self, vacation_data):
        store = vacation_data.columns
        assert len(store) == len(vacation_data)
        for i, row in enumerate(vacation_data.canonical_rows):
            for dim, value in enumerate(row):
                assert store.matrix[i, dim] == float(value)
        assert store.nominal_dims == (2,)

    def test_store_is_cached_and_readonly(self, vacation_data):
        store = vacation_data.columns
        assert vacation_data.columns is store
        with pytest.raises(ValueError):
            store.matrix[0, 0] = 99.0


class TestDatasetValidation:
    """Eager validation names the offending row index and attribute."""

    def test_bad_nominal_value_names_row_and_attribute(self):
        with pytest.raises(Exception) as excinfo:
            Dataset(SCHEMA, [(1, 1, "a0", "b0"), (1, 1, "nope", "b0")])
        message = str(excinfo.value)
        assert "row 1" in message
        assert "'A'" in message
        assert "nope" in message

    def test_non_numeric_value_names_row_and_attribute(self):
        with pytest.raises(Exception) as excinfo:
            Dataset(SCHEMA, [("oops", 1, "a0", "b0")])
        message = str(excinfo.value)
        assert "row 0" in message
        assert "'x'" in message

    def test_arity_error_names_row_index(self):
        with pytest.raises(Exception) as excinfo:
            Dataset(SCHEMA, [(1, 1, "a0", "b0"), (1, 1)])
        assert "row 1" in str(excinfo.value)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_numerics_rejected(self, bad):
        # NaN compares false both ways, which the reference and the
        # vectorized kernels would resolve differently - so datasets
        # refuse non-finite numerics up front.
        with pytest.raises(Exception) as excinfo:
            Dataset(SCHEMA, [(bad, 1, "a0", "b0")])
        message = str(excinfo.value)
        assert "row 0" in message and "'x'" in message
