"""Brute-force verification of the definition-level influence condition.

This module re-decides causal influence straight from its definition: quantify
over interventions on the probed block extended by a bounded environment, and
for each one decide directly whether a post-evolution intervention reproduces
its effect locally. ``definition_check`` shares only the channel table and the
scalar ``unflatten`` decoder with the rest of the library, and no
code path with the probe-process criterion, which makes it a usable oracle for
that faster path on small instances. Per (from, to) pair it decodes each input
point and each output once, then tabulates the left side's codes per point, so
the search over interventions only indexes tables.

Soundness direction: whenever the oracle reports influence, the probe process
must as well. The converse holds at every budget: each one tries the constant
preparations with no environment first, and on a reversible classical channel
one of them witnesses every influence (the theorem of ``causal.find_witness``).
Wider classes and environments exercise the search but decide no verdict the
constants leave open, so a disagreement either way is a bug.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .causal import influence_relation
from .classical import ClassicalChannel
from .errors import BudgetError, SpecError

__all__ = [
    "CrossValidationReport",
    "OracleBudget",
    "OracleVerdict",
    "PairComparison",
    "cross_validate",
    "definition_check",
]

INTERVENTION_CLASSES = ("constants", "atoms", "all-functions")

# hard cap on one deterministic-table enumeration; 4^4 interventions on a
# bit probed with a 2-level environment stay comfortably below it
MAX_FUNCTION_TABLES = 4096


@dataclass(frozen=True)
class OracleBudget:
    """Bounds on the quantified-intervention search.

    ``max_env_dim`` bounds the environment dimension (hard limit 4: the
    enumeration is exponential). ``intervention_class`` selects which
    interventions are tried: constant preparations, those plus
    measure-and-prepare atoms, or every deterministic function table.
    The copy-swap intervention is always included when the environment
    matches the probed block. Every budget holds the constant preparations
    at environment dimension 1, which witness every influence, so the budget
    bounds the work of the search, not its verdict. Every input point is read.
    """

    max_env_dim: int = 2
    intervention_class: str = "all-functions"

    def __post_init__(self) -> None:
        if self.intervention_class not in INTERVENTION_CLASSES:
            raise SpecError(
                f"intervention_class must be one of {INTERVENTION_CLASSES}"
            )
        if self.max_env_dim < 1:
            raise SpecError("max_env_dim must be >= 1")
        if self.max_env_dim > 4:
            raise BudgetError("max_env_dim above 4 is not supported (combinatorial blow-up)")


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of one definition-level check."""

    influence: bool
    env_dim: Optional[int] = None
    witness_table: Optional[tuple[Optional[int], ...]] = None
    interventions_checked: int = 0


def _tables(m: int) -> Iterator[tuple[int, ...]]:
    if m**m > MAX_FUNCTION_TABLES:
        raise BudgetError(
            f"enumerating {m}^{m} deterministic tables exceeds the cap of {MAX_FUNCTION_TABLES}"
        )
    return itertools.product(range(m), repeat=m)


def _interventions(
    budget: OracleBudget, env_dim: int, d_from: int
) -> Iterator[tuple[Optional[int], ...]]:
    """The constants (every table under ``all-functions``), the atoms unless
    the class is ``constants``, then the copy-swap when ``env_dim == d_from``."""
    m = env_dim * d_from
    if budget.intervention_class == "all-functions":
        yield from _tables(m)
    else:
        for j in range(m):
            yield tuple([j] * m)
    if budget.intervention_class != "constants":
        for i in range(m):
            for j in range(m):
                atom: list[Optional[int]] = [None] * m
                atom[i] = j
                yield tuple(atom)
    if env_dim == d_from:
        yield tuple(a * d_from + e for e in range(d_from) for a in range(d_from))


def definition_check(
    u: ClassicalChannel,
    from_in: Iterable[str],
    to_out: Iterable[str],
    budget: OracleBudget,
) -> OracleVerdict:
    """Decide influence by quantifying over interventions within the budget.

    For each intervention A on (environment, probed block), decide whether some
    A' on (environment, non-target outputs) satisfies "intervene then evolve
    equals evolve then intervene locally" pointwise over all inputs. An
    intervention with no such A' witnesses influence. Unknown and duplicate
    wire names raise ``SpecError``; the named wires are read in system order.
    Each input point and each output is decoded once; each ``env_dim``'s
    interventions are checked against one table row per (env, point).
    """
    in_from_pos, to_pos = u.input.subset_positions(from_in), u.output.subset_positions(to_out)
    from_sys = u.input.select([u.input.names[k] for k in in_from_pos])
    d_from = from_sys.total_dim
    rest_pos = [k for k in range(len(u.output)) if k not in to_pos]

    # decode every input point and every output once; a replaced point is
    # found by its digits, and each output's non-target and target digits
    # are numbered by first appearance
    from_digit = {from_sys.unflatten(a2): a2 for a2 in range(d_from)}
    subs = [dict(zip(in_from_pos, a2_vals)) for a2_vals in from_digit]
    inputs = [u.input.unflatten(x) for x in range(u.input.total_dim)]
    index = {vals: x for x, vals in enumerate(inputs)}
    rest_code, tgt_code, splits = {}, {}, []
    for y in u.table:
        z = u.output.unflatten(y)
        rest = rest_code.setdefault(tuple(z[p] for p in rest_pos), len(rest_code))
        splits.append((rest, tgt_code.setdefault(tuple(z[p] for p in to_pos), len(tgt_code))))
    # per input point: its from-digit, its non-target code, and per replacement
    # from-digit the non-target code of the evolved point, None where the
    # target does not pass through
    points = []
    for vals, (rest0, tgt0) in zip(inputs, splits):
        evolved = [splits[index[tuple(r.get(p, v) for p, v in enumerate(vals))]] for r in subs]
        passes = [rest2 if tgt2 == tgt0 else None for rest2, tgt2 in evolved]
        points.append((from_digit[tuple(vals[p] for p in in_from_pos)], rest0, passes))

    n_rest, checked = len(rest_code), 0
    for env_dim in range(1, budget.max_env_dim + 1):
        # one row per (env, point): its table entry, its (env, non-target
        # output) fibre, and per value of the entry the left side's code
        codes = [
            [None if r is None else e2 * n_rest + r for e2 in range(env_dim) for r in passes]
            for _, _, passes in points
        ]
        rows = [
            (e * d_from + digit, e * n_rest + rest0, c)
            for e in range(env_dim)
            for (digit, rest0, _), c in zip(points, codes)
        ]
        for table in _interventions(budget, env_dim, d_from):
            checked += 1
            if not _exists_local_match(table, rows):
                return OracleVerdict(
                    influence=True,
                    env_dim=env_dim,
                    witness_table=table,
                    interventions_checked=checked,
                )
    return OracleVerdict(influence=False, interventions_checked=checked)


def _exists_local_match(table, rows) -> bool:
    """Whether some intervention on (env, non-target outputs) after the evolution,
    with the target passed through, reproduces "apply ``table`` to (env, from
    block), then evolve" at every input point.

    ``rows`` holds, per (env, input point), the entry ``k`` of ``table`` it
    reads, its (env, non-target output) fibre and, per value of that entry,
    the left side's code ``e2 * n_rest + rest2`` (None where the target does
    not pass through). A match exists iff the target passes through wherever
    ``table`` is defined, and the left side (undefined included) is
    single-valued on each fibre: the local intervention is then read off
    fibre by fibre.
    """
    local: dict[int, Optional[int]] = {}
    for k, fibre, codes in rows:
        hit = table[k]
        if hit is not None:
            hit = codes[hit]
            if hit is None:
                return False
        if local.setdefault(fibre, hit) != hit:
            return False
    return True


@dataclass(frozen=True)
class PairComparison:
    from_wire: str
    to_wire: str
    oracle_influence: bool
    tprocess_influence: bool

    @property
    def status(self) -> str:
        if self.oracle_influence == self.tprocess_influence:
            return "agree"
        if self.tprocess_influence and not self.oracle_influence:
            return "budget-limited"
        return "soundness-violation"


@dataclass(frozen=True)
class CrossValidationReport:
    pairs: tuple[PairComparison, ...]

    @property
    def sound(self) -> bool:
        """No pair where the oracle finds influence the probe process misses."""
        return all(p.status != "soundness-violation" for p in self.pairs)

    @property
    def full_agreement(self) -> bool:
        return all(p.status == "agree" for p in self.pairs)

    def to_dict(self) -> dict:
        return {
            "pairs": [
                {
                    "from": p.from_wire,
                    "to": p.to_wire,
                    "oracle": p.oracle_influence,
                    "t_process": p.tprocess_influence,
                    "status": p.status,
                }
                for p in self.pairs
            ],
            "sound": self.sound,
            "full_agreement": self.full_agreement,
        }


def cross_validate(u: ClassicalChannel, budget: OracleBudget) -> CrossValidationReport:
    """Compare oracle and probe-process verdicts on every single-wire pair.

    The probe side is one ``influence_relation`` pass, which runs every check
    of ``t_process``; the oracle side is one ``definition_check`` per pair,
    which shares only the channel table and the scalar ``unflatten``
    decoder with the rest of the library. Any disagreement is an implementation
    bug: a soundness violation (oracle influence, probe process none) as much
    as a budget-limited pair (probe influence the oracle missed), since the
    constant preparations every budget tries witness every influence.
    """
    if not isinstance(u, ClassicalChannel):
        raise SpecError("the oracle only covers the classical model")
    if len(u.input) > 3 or any(d > 3 for d in u.input.dims):
        raise SpecError("cross_validate is desk-scale only: at most 3 wires of dim <= 3")
    rel = influence_relation(u)
    pairs = []
    for i, frm in enumerate(u.input.names):
        for j, to in enumerate(u.output.names):
            verdict = definition_check(u, [frm], [to], budget)
            pairs.append(
                PairComparison(
                    from_wire=frm,
                    to_wire=to,
                    oracle_influence=verdict.influence,
                    tprocess_influence=bool(rel[i, j]),
                )
            )
    return CrossValidationReport(pairs=tuple(pairs))
