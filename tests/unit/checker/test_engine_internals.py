"""Unit tests for internal helpers of the checker engine (terms, matching, tabling)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.addg import build_addg
from repro.checker import default_registry
from repro.checker.engine import Engine, Term, _maximum_matching
from repro.presburger import Map, opcache, parse_map, parse_set
from repro.verifier import Verifier
from repro.workloads import fig1_program, kernel_pair


@pytest.fixture()
def engine():
    original = build_addg(fig1_program("a", 64))
    transformed = build_addg(fig1_program("c", 64))
    return Engine(original, transformed, registry=default_registry())


def _lazy(matrix):
    """A cell callback over a boolean matrix that records every cell it is asked for."""
    asked = []

    def compatible(row, col):
        asked.append((row, col))
        return matrix[row][col]

    return compatible, asked


def _match(matrix):
    compatible, _ = _lazy(matrix)
    return _maximum_matching(len(matrix), len(matrix[0]) if matrix else 0, compatible)


def _eager_kuhn(matrix):
    """Reference: Kuhn's algorithm over the fully evaluated matrix."""
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    match_for_col = [None] * cols

    def try_augment(row, visited):
        for col in range(cols):
            if matrix[row][col] and not visited[col]:
                visited[col] = True
                if match_for_col[col] is None or try_augment(match_for_col[col], visited):
                    match_for_col[col] = row
                    return True
        return False

    for row in range(rows):
        try_augment(row, [False] * cols)
    return [(row, col) for col, row in enumerate(match_for_col) if row is not None]


class TestMaximumMatching:
    def test_perfect_matching_found(self):
        compatibility = [
            [True, False, False],
            [False, True, False],
            [False, False, True],
        ]
        assert len(_match(compatibility)) == 3

    def test_augmenting_path_needed(self):
        # row 0 can take either column, row 1 only column 0: Kuhn must re-route.
        compatibility = [
            [True, True],
            [True, False],
        ]
        matching = _match(compatibility)
        assert len(matching) == 2
        assert dict((r, c) for r, c in matching) == {0: 1, 1: 0}

    def test_partial_matching(self):
        compatibility = [
            [True, False],
            [True, False],
        ]
        assert len(_match(compatibility)) == 1

    def test_empty_matrix(self):
        assert _match([]) == []

    def test_identity_asks_only_the_cells_it_needs(self):
        compatible, asked = _lazy([[row == col for col in range(4)] for row in range(4)])
        assert len(_maximum_matching(4, 4, compatible)) == 4
        # Row r stops at its diagonal cell: 1 + 2 + 3 + 4 cells, not 16.
        assert len(asked) == 10

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=0, max_value=7).flatmap(
            lambda rows: st.integers(min_value=0, max_value=7).flatmap(
                lambda cols: st.lists(
                    st.lists(st.booleans(), min_size=cols, max_size=cols),
                    min_size=rows,
                    max_size=rows,
                ).map(lambda matrix: (matrix, cols))
            )
        )
    )
    def test_lazy_matches_eager_and_asks_each_cell_once(self, case):
        matrix, cols = case
        compatible, asked = _lazy(matrix)
        assert _maximum_matching(len(matrix), cols, compatible) == _eager_kuhn(matrix)
        assert len(asked) == len(set(asked))


class TestLazyMatchingInChecks:
    @staticmethod
    def _operands(side):
        # Two operands share the signature ("const", 1): a 2x2 matching group;
        # the third forms a single-member group after it.
        rel = Map.identity(("w0",), domain=parse_set("{ [k] : 0 <= k < 4 }"))
        return [Term(Term.CONST, side, rel, (), value=value) for value in (1, 1, 2)]

    @pytest.mark.parametrize("trial, expected_calls", [(True, 4), (False, 5)])
    def test_trial_matching_stops_at_the_first_unpairable_group(
        self, engine, monkeypatch, trial, expected_calls
    ):
        calls = []

        def never_equal(first, second, trial=False, depth=0):
            calls.append((first.value, second.value))
            return False

        monkeypatch.setattr(engine, "compare", never_equal)
        assert not engine._match_terms(self._operands(0), self._operands(1), trial, 0)
        # Kuhn asks each cell of the failing 2x2 group once; only a reporting
        # comparison goes on to the next group for its diagnostics.
        assert len(calls) == expected_calls
        assert bool(engine.diagnostics) is not trial

    def test_cold_conv2d_check_skips_unread_trial_compares(self):
        # The eager 9x9 compatibility matrix of conv2d cost 244 compare calls.
        opcache.reset()
        pair = kernel_pair("conv2d")
        result = Verifier().check(pair.original, pair.transformed)
        assert result.equivalent
        assert result.stats.compare_calls < 244


class TestTerms:
    def test_output_term_structure(self, engine):
        identity = Map.identity(("w0",), domain=parse_set("{ [k] : 0 <= k < 64 }"))
        term = engine.output_term(0, "C", identity)
        assert term.kind == Term.ARRAY
        assert term.display() == "C"
        assert term.path_text() == ("C",)
        assert term.path_arrays() == ("C",)
        assert term.path_statements() == ()

    def test_with_rel_preserves_identity_fields(self, engine):
        identity = Map.identity(("w0",), domain=parse_set("{ [k] : 0 <= k < 64 }"))
        term = engine.output_term(1, "C", identity)
        restricted = term.with_rel(identity.restrict_domain(parse_set("{ [k] : k < 8 }")))
        assert restricted.array == "C"
        assert restricted.side == 1
        assert restricted.rel.domain().count() == 8

    def test_term_keys_distinguish_relations(self, engine):
        small = Map.identity(("w0",), domain=parse_set("{ [k] : 0 <= k < 8 }"))
        large = Map.identity(("w0",), domain=parse_set("{ [k] : 0 <= k < 16 }"))
        key_small = engine._term_key(engine.output_term(0, "C", small))
        key_large = engine._term_key(engine.output_term(0, "C", large))
        assert key_small != key_large

    def test_term_keys_equal_for_equal_terms(self, engine):
        rel = Map.identity(("w0",), domain=parse_set("{ [k] : 0 <= k < 8 }"))
        assert engine._term_key(engine.output_term(0, "C", rel)) == engine._term_key(
            engine.output_term(0, "C", rel)
        )


class TestResolution:
    def test_resolving_output_reaches_operators(self, engine):
        identity = Map.identity(("w0",), domain=parse_set("{ [k] : 0 <= k < 64 }"))
        term = engine.output_term(0, "C", identity)
        pieces, ok = engine._resolve(term)
        assert ok
        assert pieces
        assert all(piece.kind == Term.OP for piece in pieces)

    def test_resolving_input_is_identity(self, engine):
        rel = parse_map("{ [k] -> [2k] : 0 <= k < 64 }")
        term = Term(Term.ARRAY, 0, rel, (("array", "A"),), array="A")
        pieces, ok = engine._resolve(term)
        assert ok and len(pieces) == 1 and pieces[0] is term

    def test_resolving_empty_relation_gives_no_pieces(self, engine):
        empty = Map.empty(("w0",), ("e0",))
        term = Term(Term.ARRAY, 0, empty, (("array", "tmp"),), array="tmp")
        pieces, ok = engine._resolve(term)
        assert ok and pieces == []

    def test_undefined_read_sets_flag_and_diagnostic(self, engine):
        # tmp in version (a) is defined on [0, 64); ask for elements beyond that.
        rel = parse_map("{ [k] -> [k + 60] : 0 <= k < 10 }")
        term = Term(Term.ARRAY, 0, rel, (("array", "tmp"),), array="tmp")
        pieces, ok = engine._resolve(term)
        assert not ok
        assert engine.diagnostics

    def test_compare_identical_terms_uses_table_on_repeat(self, engine):
        identity = Map.identity(("w0",), domain=parse_set("{ [k] : 0 <= k < 64 }"))
        term1 = engine.output_term(0, "C", identity)
        term2 = engine.output_term(1, "C", identity)
        assert engine.compare(term1, term2)
        hits_before = engine.stats.table_hits
        assert engine.compare(term1, term2)
        assert engine.stats.table_hits > hits_before


class TestEngineConfiguration:
    def test_invalid_method_rejected(self):
        addg = build_addg(fig1_program("a", 16))
        with pytest.raises(ValueError):
            Engine(addg, addg, method="fancy")

    def test_basic_method_ignores_registry(self):
        addg = build_addg(fig1_program("a", 16))
        engine = Engine(addg, addg, method="basic")
        assert not engine.properties("+").is_algebraic

    def test_extended_method_uses_registry(self):
        addg = build_addg(fig1_program("a", 16))
        engine = Engine(addg, addg, method="extended")
        assert engine.properties("+").associative and engine.properties("+").commutative
        assert not engine.properties("-").is_algebraic
