"""Full reproduction report generator.

Renders the complete paper-vs-measured comparison — both tables and every
quantitative claim — as plain text, so `repro-analyze report` (or CI) can
produce the whole EXPERIMENTS.md evidence base in one command.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis import (
    ReliabilityResult,
    counting_reliability,
    format_probability,
    nines,
    predicate_probability,
)
from repro.faults.mixture import NodeModel, byzantine_fleet, heterogeneous_fleet, uniform_fleet
from repro.protocols.pbft import PBFTSpec
from repro.protocols.raft import RaftSpec
from repro.protocols.reliability_aware import (
    ObliviousDurabilityRaftSpec,
    ReliabilityAwareRaftSpec,
)


@dataclass(frozen=True)
class ClaimResult:
    """One claim's paper-vs-measured comparison."""

    claim_id: str
    description: str
    paper_value: str
    measured_value: str
    matches: bool


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Left-aligned columns under a dashed rule; every CLI table prints through it."""
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def pbft_table(rows: Sequence[tuple[PBFTSpec, ReliabilityResult]]) -> str:
    """Table 1's layout for any PBFT deployments: quorum sizes, then
    Safe / Live / Safe and Live."""
    return format_table(
        ["N", "|Qeq|", "|Qper|", "|Qvc|", "|Qvc_t|", "Safe %", "Live %", "Safe and Live %"],
        [
            [
                str(spec.n),
                str(spec.q_eq),
                str(spec.q_per),
                str(spec.q_vc),
                str(spec.q_vc_t),
                format_probability(result.safe.value),
                format_probability(result.live.value),
                format_probability(result.safe_and_live.value),
            ]
            for spec, result in rows
        ],
    )


def table1_text() -> str:
    """Table 1 reproduction as text."""
    specs = [PBFTSpec(n) for n in (4, 5, 7, 8)]
    rows = [(spec, counting_reliability(spec, byzantine_fleet(spec.n, 0.01))) for spec in specs]
    return "Table 1: PBFT reliability, uniform p_u = 1%\n" + pbft_table(rows)


def table2_text() -> str:
    """Table 2 reproduction as text."""
    probabilities = (0.01, 0.02, 0.04, 0.08)
    rows = []
    for n in (3, 5, 7, 9):
        spec = RaftSpec(n)
        cells = [str(n), str(spec.q_per), str(spec.q_vc)]
        for p in probabilities:
            result = counting_reliability(spec, uniform_fleet(n, p))
            cells.append(format_probability(result.safe_and_live.value))
        rows.append(cells)
    header = "Table 2: Raft reliability for uniform node failure p_u\n"
    return header + format_table(
        ["N", "|Qper|", "|Qvc|"] + [f"S&L p={p:.0%}" for p in probabilities], rows
    )


def evaluate_claims() -> list[ClaimResult]:
    """Check every quantitative in-text claim; exact estimators only."""
    claims: list[ClaimResult] = []

    # E1: three nines at N=3, p=1%.
    e1 = counting_reliability(RaftSpec(3), uniform_fleet(3, 0.01)).safe_and_live.value
    claims.append(
        ClaimResult(
            "E1",
            "Raft N=3 at p=1% is only 99.97% safe-and-live",
            "99.97%",
            format_probability(e1),
            round(e1 * 100, 2) == 99.97,
        )
    )

    # E2: 9 nodes @8% match 3 @1%.
    cheap = counting_reliability(RaftSpec(9), uniform_fleet(9, 0.08)).safe_and_live.value
    claims.append(
        ClaimResult(
            "E2",
            "9 nodes at p=8% give the same 99.97%",
            "99.97%",
            format_probability(cheap),
            round(cheap * 100, 2) == 99.97,
        )
    )

    # E3: ten nines for a 5-node sample at p=1%.
    p_all_faulty = 0.01**5
    claims.append(
        ClaimResult(
            "E3",
            "random 5-node quorum holds a correct node with ten nines (N=100, p=1%)",
            "10 nines",
            f"{nines(1 - p_all_faulty):.1f} nines",
            abs(nines(1 - p_all_faulty) - 10.0) < 0.01,
        )
    )

    # E4: heterogeneous durability story.
    mixed = heterogeneous_fleet([(4, NodeModel(0.08)), (3, NodeModel(0.01))])
    base = counting_reliability(RaftSpec(7), uniform_fleet(7, 0.08)).safe_and_live.value
    upgraded = counting_reliability(RaftSpec(7), mixed).safe_and_live.value
    pinned = predicate_probability(
        mixed, ReliabilityAwareRaftSpec(7, pinned=[4, 5, 6]).is_durable
    )
    oblivious = predicate_probability(mixed, ObliviousDurabilityRaftSpec(7).is_durable)
    claims.append(
        ClaimResult(
            "E4a",
            "7x8% Raft is 99.88% safe-and-live",
            "99.88%",
            format_probability(base),
            round(base * 100, 2) == 99.88,
        )
    )
    claims.append(
        ClaimResult(
            "E4b",
            "upgrading 3 nodes to 1% barely helps the oblivious protocol",
            "~99.98%",
            format_probability(upgraded),
            99.97 <= upgraded * 100 <= 99.99,
        )
    )
    claims.append(
        ClaimResult(
            "E4c",
            "pinning one reliable node per quorum lifts durability to 99.994%",
            "99.994%",
            format_probability(pinned),
            round(pinned * 100, 3) == 99.994 and pinned > oblivious,
        )
    )

    # E5: the 4-vs-5-vs-7 PBFT trade-off.
    four = counting_reliability(PBFTSpec(4), byzantine_fleet(4, 0.01))
    five = counting_reliability(PBFTSpec(5), byzantine_fleet(5, 0.01))
    seven = counting_reliability(PBFTSpec(7), byzantine_fleet(7, 0.01))
    gain = (1 - four.safe.value) / (1 - five.safe.value)
    loss = (1 - five.live.value) / (1 - four.live.value)
    claims.append(
        ClaimResult(
            "E5a",
            "5-node PBFT is 42-60x safer than 4-node",
            "42-60x",
            f"{gain:.1f}x",
            42.0 <= gain <= 70.0,
        )
    )
    claims.append(
        ClaimResult(
            "E5b",
            "with only a 1.67x liveness decrease",
            "1.67x",
            f"{loss:.2f}x",
            abs(loss - 1.67) < 0.05,
        )
    )
    claims.append(
        ClaimResult(
            "E5c",
            "and the 5-node system is safer than the 7-node one",
            "5-node > 7-node",
            f"{format_probability(five.safe.value)} > {format_probability(seven.safe.value)}",
            five.safe.value > seven.safe.value,
        )
    )

    # E6: the 100-node persistence-quorum example.
    from repro.quorums.intersection import (
        prob_failure_count_reaches,
        prob_fixed_quorum_wiped_out,
    )

    p_many = prob_failure_count_reaches(100, 0.10, 10)
    p_wipe = prob_fixed_quorum_wiped_out([0.10] * 10)
    claims.append(
        ClaimResult(
            "E6a",
            ">= |Qper| failures occur with ~50% probability (N=100, p=10%)",
            "~50%",
            f"{p_many:.1%}",
            0.49 <= p_many <= 0.60,
        )
    )
    claims.append(
        ClaimResult(
            "E6b",
            "but they cover the formed quorum with probability 1e-10",
            "1e-10",
            f"{p_wipe:.1e}",
            abs(p_wipe - 1e-10) < 1e-12,
        )
    )
    return claims


def claims_text(claims: Sequence[ClaimResult] | None = None) -> str:
    """The in-text-claims comparison as a table (``claims`` defaults to
    :func:`evaluate_claims`)."""
    if claims is None:
        claims = evaluate_claims()
    rows = [
        [c.claim_id, c.description, c.paper_value, c.measured_value, "yes" if c.matches else "NO"]
        for c in claims
    ]
    return "In-text claims (paper vs measured)\n" + format_table(
        ["id", "claim", "paper", "measured", "match"], rows
    )


def full_report(claims: Sequence[ClaimResult] | None = None) -> str:
    """Everything: both tables plus every claim (evaluated here unless
    ``claims`` already holds :func:`evaluate_claims`'s answer)."""
    sections = [
        "repro — reproduction report for 'Real Life Is Uncertain. "
        "Consensus Should Be Too!' (HotOS '25)",
        table1_text(),
        table2_text(),
        claims_text(claims),
    ]
    return "\n\n".join(sections) + "\n"
