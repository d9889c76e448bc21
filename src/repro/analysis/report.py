"""Text renderings of the analysis results (paper Tables 4 and 7, Figure 7).

These are deliberately plain ASCII tables: the benchmark harness prints
them so the paper's artifacts can be eyeballed against the reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.ipm import IpmCharacterization

__all__ = [
    "CharacterizationSummary",
    "format_ipm_table",
    "format_summary_table",
    "summarize_characterization",
]


@dataclass(frozen=True)
class CharacterizationSummary:
    """Table 7 row: counts of pairs in each IPM-relationship category.

    Categories partition the U/Q pairs exactly as the paper's Table 7:

    * ``zero`` — A = B = C = 0;
    * the four A = 1 cells, split by B < A vs B = A and C < B vs C = B.
    """

    application: str
    total_pairs: int
    zero: int
    b_lt_a_c_lt_b: int
    b_lt_a_c_eq_b: int
    b_eq_a_c_lt_b: int
    b_eq_a_c_eq_b: int


def summarize_characterization(
    application: str, characterization: IpmCharacterization
) -> CharacterizationSummary:
    """Bin every pair into the Table 7 categories."""
    zero = b_lt_a_c_lt_b = b_lt_a_c_eq_b = b_eq_a_c_lt_b = b_eq_a_c_eq_b = 0
    for pair in characterization:
        if pair.a_is_zero:
            zero += 1
        elif pair.b_equals_a and pair.c_equals_b:
            b_eq_a_c_eq_b += 1
        elif pair.b_equals_a:
            b_eq_a_c_lt_b += 1
        elif pair.c_equals_b:
            b_lt_a_c_eq_b += 1
        else:
            b_lt_a_c_lt_b += 1
    return CharacterizationSummary(
        application=application,
        total_pairs=len(characterization),
        zero=zero,
        b_lt_a_c_lt_b=b_lt_a_c_lt_b,
        b_lt_a_c_eq_b=b_lt_a_c_eq_b,
        b_eq_a_c_lt_b=b_eq_a_c_lt_b,
        b_eq_a_c_eq_b=b_eq_a_c_eq_b,
    )


def format_summary_table(summaries: list[CharacterizationSummary]) -> str:
    """Render Table 7 for several applications."""
    header = (
        f"{'Application':<12} {'A=B=C=0':>8} "
        f"{'B<A,C<B':>9} {'B<A,C=B':>9} {'B=A,C<B':>9} {'B=A,C=B':>9} "
        f"{'total':>7}"
    )
    lines = [header, "-" * len(header)]
    for summary in summaries:
        lines.append(
            f"{summary.application:<12} {summary.zero:>8} "
            f"{summary.b_lt_a_c_lt_b:>9} {summary.b_lt_a_c_eq_b:>9} "
            f"{summary.b_eq_a_c_lt_b:>9} {summary.b_eq_a_c_eq_b:>9} "
            f"{summary.total_pairs:>7}"
        )
    return "\n".join(lines)


def format_ipm_table(characterization: IpmCharacterization) -> str:
    """Render a Table 4 style matrix: one cell per U/Q pair.

    Each cell shows the three relationships, e.g. ``A=1 B<A C=B``.
    """
    registry = characterization.registry
    query_names = [q.name for q in registry.queries]
    update_names = [u.name for u in registry.updates]
    width = max(16, max((len(n) for n in query_names), default=16) + 2)
    header = f"{'':<12}" + "".join(f"{name:>{width}}" for name in query_names)
    lines = [header, "-" * len(header)]
    for update_name in update_names:
        cells = []
        for query_name in query_names:
            pair = characterization.pair(update_name, query_name)
            if pair.a_is_zero:
                cells.append("A=B=C=0")
            else:
                b = "B=A" if pair.b_equals_a else "B<A"
                c = "C=B" if pair.c_equals_b else "C<B"
                cells.append(f"A=1 {b} {c}")
        lines.append(
            f"{update_name:<12}" + "".join(f"{cell:>{width}}" for cell in cells)
        )
    return "\n".join(lines)
