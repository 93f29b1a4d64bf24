"""Array data-flow checks: single assignment, coverage, and def-use order.

The verification scheme of Fig. 6 of the paper runs a *def-use checker* on
both programs before equivalence checking, because the sufficient condition
assumes the code is correctly scheduled ("all the reads for values follow
their writes").  This module implements that prerequisite with standard array
data-flow analysis on the statement contexts:

* :func:`check_single_assignment` — every array element is written at most
  once (the dynamic single-assignment property of the program class);
* :func:`check_coverage` — every element read from a non-input array is
  written by some statement (no reads of undefined values);
* :func:`check_def_use_order` — every read happens after the write of the
  element it reads, under the sequential schedule of the program;
* :func:`check_dataflow` — all of the above, returning a list of issues.

The def-use check computes the violating instances directly instead of
proving that the conflict relation is contained in a happens-before
relation.  Both statements' ``2d+1`` timestamps are padded to one length and
expressed over their renamed iterators; for each schedule position ``p`` the
piece ``conflict ∧ (w_q = r_q for q < p) ∧ r_p < w_p`` holds the pairs whose
read is scheduled first at ``p``, and a last piece holds the pairs whose
timestamps are equal everywhere.  The violation is their union.  Positions
whose timestamps are constants (the statement and loop positions of the
``2d+1`` form) are decided without any set operation, and the walk stops as
soon as no conflicting pair ties on the prefix, since every deeper piece is
then empty.  That is one intersection per loop position instead of a
composition with a ``d``-piece lexicographic order and a full subtraction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..presburger import LinExpr, Map, Set, eq_, gt_
from ..lang.ast import ArrayRef, Program, array_reads
from .access import access_map, defined_set, write_access_map
from .domains import StatementContext, statement_contexts

__all__ = [
    "check_single_assignment",
    "check_coverage",
    "check_def_use_order",
    "check_dataflow",
    "written_set_by_array",
]


def written_set_by_array(contexts: Sequence[StatementContext]) -> Dict[str, Set]:
    """The union of written elements per array over all statements."""
    result: Dict[str, Set] = {}
    for context in contexts:
        elements = defined_set(context)
        name = context.target_array
        if name in result:
            result[name] = result[name].union(elements)
        else:
            result[name] = elements
    return result


# --------------------------------------------------------------------------- #
# Single assignment
# --------------------------------------------------------------------------- #
def check_single_assignment(program: Program, contexts: Optional[Sequence[StatementContext]] = None) -> List[str]:
    """Verify the dynamic single-assignment property at the element level."""
    contexts = list(contexts) if contexts is not None else statement_contexts(program)
    issues: List[str] = []
    by_array: Dict[str, List[StatementContext]] = {}
    for context in contexts:
        by_array.setdefault(context.target_array, []).append(context)

    for array, writers in by_array.items():
        for index, writer in enumerate(writers):
            write_map = write_access_map(writer)
            if not write_map.is_injective():
                issues.append(
                    f"statement {writer.label!r} writes some element of {array!r} "
                    "in more than one iteration (single-assignment violation)"
                )
            for other in writers[index + 1 :]:
                if not defined_set(writer).is_disjoint(defined_set(other)):
                    issues.append(
                        f"statements {writer.label!r} and {other.label!r} both write "
                        f"some element of {array!r} (single-assignment violation)"
                    )
    return issues


# --------------------------------------------------------------------------- #
# Coverage (no reads of undefined elements)
# --------------------------------------------------------------------------- #
def check_coverage(program: Program, contexts: Optional[Sequence[StatementContext]] = None) -> List[str]:
    """Verify that every read of a non-input array reads a written element."""
    contexts = list(contexts) if contexts is not None else statement_contexts(program)
    issues: List[str] = []
    inputs = set(program.input_arrays())
    written = written_set_by_array(contexts)

    for context in contexts:
        for ref in array_reads(context.assignment.rhs):
            if ref.name in inputs:
                continue
            read_elements = access_map(context, ref).range()
            if read_elements.is_empty():
                continue
            available = written.get(ref.name)
            if available is None:
                issues.append(
                    f"statement {context.label!r} reads {ref.name!r} which is never written"
                )
                continue
            uncovered = read_elements.subtract(available.rename(read_elements.names))
            if not uncovered.is_empty():
                issues.append(
                    f"statement {context.label!r} reads undefined elements of {ref.name!r}: {uncovered}"
                )
    return issues


# --------------------------------------------------------------------------- #
# Def-use order
# --------------------------------------------------------------------------- #
def _timestamps(context: StatementContext, length: int, prefix: str) -> Tuple[Tuple[str, ...], List[LinExpr]]:
    """The statement's iterators renamed with *prefix*, and its schedule over them padded to *length*."""
    renaming = {it: f"{prefix}_{it}" for it in context.iterators}
    times = [expr.rename(renaming) for expr in context.schedule]
    times.extend(LinExpr.constant(0) for _ in range(length - len(times)))
    return tuple(renaming[it] for it in context.iterators), times


def _order_violation(conflict: Map, writer: StatementContext, reader: StatementContext, length: int) -> Map:
    """The pairs of *conflict* whose read is not scheduled strictly after the write.

    With ``w`` and ``r`` the padded timestamps of the writer and reader
    instances, the violation is the union over schedule positions ``p`` of
    ``conflict ∧ (w_q = r_q for q < p) ∧ r_p < w_p``, plus the piece where
    every position is equal.  Once the equal-prefix part of the conflict is
    empty, every deeper piece is empty too.
    """
    w_names, w_times = _timestamps(writer, length, "w")
    r_names, r_times = _timestamps(reader, length, "r")
    tied = conflict.rename(w_names, r_names)  # pairs whose timestamps agree so far
    violation = Map.empty(w_names, r_names)
    for w_time, r_time in zip(w_times, r_times):
        if tied.is_empty():
            break
        gap = w_time - r_time
        if gap.is_constant():
            if gap.const > 0:
                violation = violation.union(tied)
            if gap.const != 0:
                tied = Map.empty(w_names, r_names)
            continue
        violation = violation.union(tied.intersect(Map.build(w_names, r_names, [gt_(gap, 0)])))
        tied = tied.intersect(Map.build(w_names, r_names, [eq_(gap, 0)]))
    violation = violation.union(tied)
    return violation.rename(conflict.in_names, conflict.out_names)


def _def_use_violations(
    program: Program, contexts: Sequence[StatementContext]
) -> List[Tuple[StatementContext, str, StatementContext, Map]]:
    """``(reader, array, writer, violating instances)`` for every misordered pair."""
    inputs = set(program.input_arrays())
    writers_by_array: Dict[str, List[StatementContext]] = {}
    for context in contexts:
        writers_by_array.setdefault(context.target_array, []).append(context)

    length = max((len(c.schedule) for c in contexts), default=0)
    violations: List[Tuple[StatementContext, str, StatementContext, Map]] = []
    for reader in contexts:
        for ref in array_reads(reader.assignment.rhs):
            if ref.name in inputs or ref.name not in writers_by_array:
                continue
            read_map = access_map(reader, ref)
            for writer in writers_by_array[ref.name]:
                write_map = write_access_map(writer)
                # conflict: writer iteration -> reader iteration touching the same element
                conflict = write_map.compose(read_map.inverse())
                if conflict.is_empty():
                    continue
                violation = _order_violation(conflict, writer, reader, length)
                if not violation.is_empty():
                    violations.append((reader, ref.name, writer, violation))
    return violations


def check_def_use_order(program: Program, contexts: Optional[Sequence[StatementContext]] = None) -> List[str]:
    """Verify that every read of a written element executes after its write.

    For each (writer statement, reader reference) pair on the same array, no
    pair of the conflict relation ``{ i_w -> i_r : w(i_w) = r(i_r) }`` may
    have the read scheduled at or before the write under the ``2d+1``
    schedules (see :func:`_order_violation`).
    """
    contexts = list(contexts) if contexts is not None else statement_contexts(program)
    return [
        f"statement {reader.label!r} reads elements of {array!r} before "
        f"statement {writer.label!r} writes them (violating instances: {violation})"
        for reader, array, writer, violation in _def_use_violations(program, contexts)
    ]


def check_dataflow(program: Program) -> List[str]:
    """Run all data-flow prerequisites of the verification scheme (Fig. 6)."""
    contexts = statement_contexts(program)
    issues: List[str] = []
    issues.extend(check_single_assignment(program, contexts))
    issues.extend(check_coverage(program, contexts))
    issues.extend(check_def_use_order(program, contexts))
    return issues
