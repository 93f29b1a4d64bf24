"""Unit tests for the data-flow prerequisites (single assignment, coverage, def-use order)."""

from typing import List

import pytest

from repro.analysis import (
    check_coverage,
    check_dataflow,
    check_def_use_order,
    check_single_assignment,
    written_set_by_array,
    statement_contexts,
)
from repro.analysis.access import access_map, write_access_map
from repro.analysis.dataflow import _def_use_violations
from repro.lang import parse_program
from repro.lang.ast import array_reads
from repro.presburger import LinExpr, Map, eq_, lt_
from repro.scenarios import ScenarioSpec, build_scenarios
from repro.workloads import FIG1_SOURCES, fig1_program, kernel_names, kernel_pair


class TestSingleAssignment:
    def test_fig1_versions_are_single_assignment(self):
        for version in "abcd":
            assert check_single_assignment(fig1_program(version, 64)) == []

    def test_same_statement_overwrite_detected(self):
        program = parse_program(
            "f(int A[], int C[]) { int k; for(k=0;k<8;k++) s1: C[0] = A[k]; }"
        )
        issues = check_single_assignment(program)
        assert any("single-assignment" in issue for issue in issues)

    def test_two_statements_overlapping_writes_detected(self):
        program = parse_program(
            """
            f(int A[], int C[]) {
                int k;
                for (k = 0; k < 8; k++)
            s1:     C[k] = A[k];
                for (k = 4; k < 12; k++)
            s2:     C[k] = A[k + 1];
            }
            """
        )
        issues = check_single_assignment(program)
        assert any("s1" in issue and "s2" in issue for issue in issues)

    def test_disjoint_piecewise_writes_accepted(self):
        program = parse_program(
            """
            f(int A[], int C[]) {
                int k;
                for (k = 0; k < 4; k++)
            s1:     C[k] = A[k];
                for (k = 4; k < 8; k++)
            s2:     C[k] = A[k];
            }
            """
        )
        assert check_single_assignment(program) == []


class TestCoverage:
    def test_reading_written_elements_is_fine(self):
        assert check_coverage(fig1_program("a", 64)) == []

    def test_reading_never_written_array(self):
        program = parse_program(
            """
            f(int A[], int C[]) {
                int k, t[8];
                for (k = 0; k < 8; k++)
            s2:     C[k] = t[k];
            }
            """
        )
        issues = check_coverage(program)
        assert any("never written" in issue for issue in issues)

    def test_reading_beyond_written_range(self):
        program = parse_program(
            """
            f(int A[], int C[]) {
                int k, t[16];
                for (k = 0; k < 4; k++)
            s1:     t[k] = A[k];
                for (k = 0; k < 8; k++)
            s2:     C[k] = t[k];
            }
            """
        )
        issues = check_coverage(program)
        assert any("undefined elements" in issue for issue in issues)

    def test_inputs_never_flagged(self):
        program = parse_program(
            "f(int A[], int C[]) { int k; for(k=0;k<4;k++) s1: C[k] = A[k + 100]; }"
        )
        assert check_coverage(program) == []


class TestDefUseOrder:
    def test_fig1_versions_pass(self):
        for version in "abcd":
            assert check_def_use_order(fig1_program(version, 64)) == []

    def test_recurrence_kernels_pass(self):
        pair = kernel_pair("prefix_sum", n=16)
        assert check_def_use_order(pair.original) == []
        assert check_def_use_order(pair.transformed) == []

    def test_use_before_def_across_loops(self):
        program = parse_program(
            """
            f(int A[], int C[]) {
                int k, t[8];
                for (k = 0; k < 8; k++)
            s1:     C[k] = t[k];
                for (k = 0; k < 8; k++)
            s2:     t[k] = A[k];
            }
            """
        )
        issues = check_def_use_order(program)
        assert any("before" in issue for issue in issues)

    def test_forward_recurrence_reading_future_value(self):
        program = parse_program(
            """
            f(int A[], int C[]) {
                int k, t[10];
                for (k = 0; k < 8; k++)
            s1:     t[k] = t[k + 1] + A[k];
                for (k = 0; k < 8; k++)
            s2:     C[k] = t[k];
            }
            """
        )
        issues = check_def_use_order(program)
        assert issues

    def test_same_iteration_write_then_read_is_fine(self):
        program = parse_program(
            """
            f(int A[], int C[]) {
                int k, t[8];
                for (k = 0; k < 8; k++) {
            s1:     t[k] = A[k];
            s2:     C[k] = t[k];
                }
            }
            """
        )
        assert check_def_use_order(program) == []

    def test_same_iteration_read_then_write_is_flagged(self):
        program = parse_program(
            """
            f(int A[], int C[]) {
                int k, t[8];
                for (k = 0; k < 8; k++) {
            s1:     C[k] = t[k];
            s2:     t[k] = A[k];
                }
            }
            """
        )
        assert check_def_use_order(program)


class TestDataflowDriver:
    def test_all_fig1_versions_pass_all_checks(self):
        for version in "abcd":
            assert check_dataflow(fig1_program(version, 64)) == []

    def test_written_set_by_array(self):
        contexts = statement_contexts(fig1_program("a", 64))
        written = written_set_by_array(contexts)
        assert set(written) == {"tmp", "buf", "C"}
        assert written["C"].count() == 64


# --------------------------------------------------------------------------- #
# Differential test: per-position violation pieces vs. compose-and-subtract
# --------------------------------------------------------------------------- #
def _oracle_schedule_map(context, length, prefix):
    """Map from the statement's iteration vector to its padded timestamp vector."""
    renaming = {it: f"{prefix}_{it}" for it in context.iterators}
    in_names = tuple(renaming[it] for it in context.iterators)
    out_names = tuple(f"{prefix}{i}" for i in range(length))
    constraints = []
    for index in range(length):
        if index < len(context.schedule):
            expr = context.schedule[index].rename(renaming)
        else:
            expr = LinExpr.constant(0)
        constraints.append(eq_(LinExpr.var(out_names[index]), expr))
    relation = Map.build(in_names, out_names, constraints)
    return relation.restrict_domain(context.domain.rename(in_names))


def _oracle_lexicographic_before(length):
    a_names = tuple(f"a{i}" for i in range(length))
    b_names = tuple(f"b{i}" for i in range(length))
    result = Map.empty(a_names, b_names)
    for position in range(length):
        constraints = [eq_(LinExpr.var(a_names[i]), LinExpr.var(b_names[i])) for i in range(position)]
        constraints.append(lt_(LinExpr.var(a_names[position]), LinExpr.var(b_names[position])))
        result = result.union(Map.build(a_names, b_names, constraints))
    return result


def _oracle_violations(program, contexts):
    """The def-use check as first written: conflict minus the happens-before relation."""
    inputs = set(program.input_arrays())
    writers_by_array = {}
    for context in contexts:
        writers_by_array.setdefault(context.target_array, []).append(context)
    length = max((len(c.schedule) for c in contexts), default=0)
    violations = []
    for reader in contexts:
        for ref in array_reads(reader.assignment.rhs):
            if ref.name in inputs or ref.name not in writers_by_array:
                continue
            read_map = access_map(reader, ref)
            for writer in writers_by_array[ref.name]:
                conflict = write_access_map(writer).compose(read_map.inverse())
                if conflict.is_empty():
                    continue
                ordered = (
                    _oracle_schedule_map(writer, length, "w")
                    .compose(_oracle_lexicographic_before(length))
                    .compose(_oracle_schedule_map(reader, length, "r").inverse())
                )
                if not conflict.is_subset(ordered):
                    violations.append((reader, ref.name, writer, conflict.subtract(ordered)))
    return violations


VIOLATING_SOURCES = {
    "reversed_prefix_sum": """
        f(int A[], int C[]) {
            int k, s[9];
        s0: s[0] = A[0];
            for (k = 8; k >= 1; k--)
        s1:     s[k] = s[k - 1] + A[k];
            for (k = 0; k < 9; k++)
        s2:     C[k] = s[k];
        }
    """,
    "read_before_write_same_iteration": """
        f(int A[], int C[]) {
            int k, t[8];
            for (k = 0; k < 8; k++) {
        s1:     C[k] = t[k];
        s2:     t[k] = A[k];
            }
        }
    """,
    "use_before_def_across_loops": """
        f(int A[], int C[]) {
            int k, t[8];
            for (k = 0; k < 8; k++)
        s1:     C[k] = t[k];
            for (k = 0; k < 8; k++)
        s2:     t[k] = A[k];
        }
    """,
    "reversed_outer_loop_2d_recurrence": """
        f(int A[], int C[]) {
            int i, j, t[6][4];
            for (j = 0; j < 4; j++)
        s0:     t[0][j] = A[j];
            for (i = 5; i >= 1; i--)
                for (j = 0; j < 4; j++)
        s1:         t[i][j] = t[i - 1][j] + A[i];
            for (j = 0; j < 4; j++)
        s2:     C[j] = t[5][j];
        }
    """,
    "interleaved_even_writes": """
        f(int A[], int C[]) {
            int k, t[18];
            for (k = 0; k < 8; k++) {
        s1:     t[2 * k] = A[k];
        s2:     t[2 * k + 1] = t[2 * k + 2] + A[k];
            }
            for (k = 0; k < 8; k++)
        s3:     C[k] = t[2 * k + 1];
        }
    """,
}


def _dataflow_programs():
    programs = []
    for name in kernel_names():
        pair = kernel_pair(name)
        programs.append((f"{name}/original", pair.original))
        programs.append((f"{name}/transformed", pair.transformed))
    for pair in build_scenarios(ScenarioSpec(seed=3, pairs=6, size=12)):
        programs.append((f"{pair.name}/original", pair.original))
        programs.append((f"{pair.name}/transformed", pair.transformed))
    for name, source in VIOLATING_SOURCES.items():
        programs.append((name, parse_program(source)))
    return programs


PROGRAMS = dict(_dataflow_programs())


def _keyed(violations) -> List:
    return [((reader.label, array, writer.label), violation) for reader, array, writer, violation in violations]


class TestDefUseDifferential:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_same_issues_and_equal_violation_sets(self, name):
        program = PROGRAMS[name]
        contexts = statement_contexts(program)
        expected = _keyed(_oracle_violations(program, contexts))
        actual = _keyed(_def_use_violations(program, contexts))
        assert [key for key, _ in actual] == [key for key, _ in expected]
        for (key, got), (_, want) in zip(actual, expected):
            assert got.is_equal(want), f"{name} {key}: {got} != {want}"
        if name in VIOLATING_SOURCES:
            assert actual, f"{name} should violate the def-use order"
