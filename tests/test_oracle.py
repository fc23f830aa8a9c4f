import ast
import itertools
from pathlib import Path
from typing import Iterable, Optional

import numpy as np
import pytest

from causal_lens import classical
from causal_lens.classical import ClassicalChannel
from causal_lens.errors import BudgetError, SpecError
from causal_lens.oracle import (
    OracleBudget,
    OracleVerdict,
    _interventions,
    cross_validate,
    definition_check,
)
from causal_lens.systems import CompositeSystem, composite

BITS = composite(("A", 2), ("B", 2))
K = classical.cnot()
SWAP = classical.swap_gate()
IDENT = ClassicalChannel.identity(BITS)


def test_budget_validation():
    with pytest.raises(BudgetError):
        OracleBudget(max_env_dim=5)
    with pytest.raises(SpecError):
        OracleBudget(intervention_class="bogus")
    with pytest.raises(SpecError):
        OracleBudget(max_env_dim=0)


def test_cnot_target_influences_control_with_constants():
    verdict = definition_check(K, ["B"], ["A"], OracleBudget(1, "constants"))
    assert verdict.influence
    assert verdict.env_dim == 1
    assert verdict.witness_table == (0, 0)  # the constant-0 preparation


def test_identity_no_influence_any_budget():
    for cls in ("constants", "atoms", "all-functions"):
        verdict = definition_check(IDENT, ["A"], ["B"], OracleBudget(2, cls))
        assert not verdict.influence


def test_swap_no_influence_on_first_output():
    # matches the probe-process neighbourhood of A being only the second output
    verdict = definition_check(SWAP, ["A"], ["A"], OracleBudget(1, "all-functions"))
    assert not verdict.influence
    verdict2 = definition_check(SWAP, ["A"], ["B"], OracleBudget(1, "all-functions"))
    assert verdict2.influence


def test_cross_validate_cnot_agrees_everywhere():
    report = cross_validate(K, OracleBudget(2, "all-functions"))
    assert report.sound and report.full_agreement
    assert len(report.pairs) == 4
    assert all(p.oracle_influence for p in report.pairs)


def test_cross_validate_random_two_bit_channels():
    rng = np.random.default_rng(55)
    for _ in range(20):
        u = classical.random_reversible(BITS, rng)
        report = cross_validate(u, OracleBudget(2, "all-functions"))
        assert report.sound


def test_cross_validate_identity_diagonal():
    report = cross_validate(IDENT, OracleBudget(2, "all-functions"))
    assert report.full_agreement
    for p in report.pairs:
        assert p.oracle_influence == (p.from_wire == p.to_wire)


def test_cross_validate_rejects_large_instances():
    big = composite(("A", 2), ("B", 2), ("C", 2), ("D", 2))
    u = classical.random_reversible(big, np.random.default_rng(0))
    with pytest.raises(SpecError):
        cross_validate(u, OracleBudget(1, "constants"))


def test_table_enumeration_budget_error():
    # identity never exits early, so the env-dim scan reaches the oversized table class
    trits = composite(("A", 3), ("B", 3))
    u = ClassicalChannel.identity(trits)
    with pytest.raises(BudgetError):
        definition_check(u, ["A"], ["B"], OracleBudget(3, "all-functions"))


def test_oracle_soundness_against_probe_process():
    # every influence the oracle finds must be confirmed by the fast path
    from causal_lens.causal import has_causal_influence

    rng = np.random.default_rng(56)
    sys2 = composite(("A", 2), ("B", 3))
    for _ in range(10):
        u = classical.random_reversible(sys2, rng)
        for frm in ("A", "B"):
            for to in ("A", "B"):
                verdict = definition_check(u, [frm], [to], OracleBudget(2, "atoms"))
                if verdict.influence:
                    assert has_causal_influence(u, [frm], [to])


THREE_BITS = composite(("A", 2), ("B", 2), ("C", 2))
IDENT3 = ClassicalChannel.identity(THREE_BITS)
CNOT_ID = classical.cnot().tensor(ClassicalChannel.identity(composite(("C", 2))))


@pytest.mark.parametrize("env_dim", [1, 2])
@pytest.mark.parametrize("cls", ["constants", "atoms", "all-functions"])
def test_three_bit_identity_oracle_sound_and_exact(env_dim, cls):
    # the local intervention needed here is "atom x identity" on two output wires
    report = cross_validate(IDENT3, OracleBudget(env_dim, cls))
    assert report.sound and report.full_agreement
    for p in report.pairs:
        assert p.oracle_influence == (p.from_wire == p.to_wire)


@pytest.mark.parametrize("env_dim", [1, 2])
@pytest.mark.parametrize("cls", ["constants", "atoms", "all-functions"])
def test_cnot_tensor_identity_oracle_sound(env_dim, cls):
    report = cross_validate(CNOT_ID, OracleBudget(env_dim, cls))
    assert report.sound
    for p in report.pairs:
        if "C" in (p.from_wire, p.to_wire):
            assert p.oracle_influence == (p.from_wire == p.to_wire)


# -- the oracle's search against the per-intervention reference ----------------
#
# A copy of ``definition_check`` as it stood before the evolved output splits
# were tabulated once per pair: it reads every input point and re-evaluates
# the channel for every intervention, which it takes from the oracle's own
# enumeration. The tabulated search must give the same verdicts, witness
# tables and intervention counts.


def reference_definition_check(
    u: ClassicalChannel,
    from_in: Iterable[str],
    to_out: Iterable[str],
    budget: OracleBudget,
) -> OracleVerdict:
    """Decide influence by quantifying over interventions within the budget.

    For each intervention A on (environment, probed block), decide whether some
    A' on (environment, non-target outputs) satisfies "intervene then evolve
    equals evolve then intervene locally" pointwise over all inputs. An
    intervention with no such A' witnesses influence.
    """
    frm = tuple(n for n in u.input.names if n in set(from_in))
    u.input.subset_positions(frm)
    to = tuple(n for n in u.output.names if n in set(to_out))
    u.output.subset_positions(to)

    from_sys = u.input.select(frm)
    d_from = from_sys.total_dim
    in_from_pos = [u.input.position(n) for n in frm]
    rest_names = u.output.complement(to)
    rest_sys = u.output.restrict(rest_names)
    to_sys = u.output.restrict(to)
    rest_pos = [u.output.position(n) for n in rest_names]
    to_pos = [u.output.position(n) for n in to]

    n_inputs = u.input.total_dim
    input_points = range(n_inputs)

    # static data: per input, the from-digit, and the output split of u(x)
    from_digit = []
    out_split = []
    for x in range(n_inputs):
        vals = u.input.unflatten(x)
        from_digit.append(from_sys.flatten([vals[p] for p in in_from_pos]))
        z = u.output.unflatten(u.table[x])
        out_split.append(
            (rest_sys.flatten([z[p] for p in rest_pos]), to_sys.flatten([z[p] for p in to_pos]))
        )
    # per (input, replacement from-digit): the evolved output split
    def evolved(x: int, a2: int) -> tuple[int, int]:
        vals = list(u.input.unflatten(x))
        for p, v in zip(in_from_pos, from_sys.unflatten(a2)):
            vals[p] = v
        z = u.output.unflatten(u.table[u.input.flatten(vals)])
        return (
            rest_sys.flatten([z[p] for p in rest_pos]),
            to_sys.flatten([z[p] for p in to_pos]),
        )

    checked = 0
    for env_dim in range(1, budget.max_env_dim + 1):
        for table in _interventions(budget, env_dim, d_from):
            checked += 1
            # left side: intervene on (env, from block), then evolve
            lhs: dict[tuple[int, int], Optional[tuple[int, int, int]]] = {}
            for e in range(env_dim):
                for x in input_points:
                    hit = table[e * d_from + from_digit[x]]
                    if hit is None:
                        lhs[(e, x)] = None
                    else:
                        e2, a2 = divmod(hit, d_from)
                        rest, tgt = evolved(x, a2)
                        lhs[(e, x)] = (e2, rest, tgt)
            if not _ref_exists_local_match(lhs, env_dim, input_points, out_split):
                return OracleVerdict(
                    influence=True,
                    env_dim=env_dim,
                    witness_table=table,
                    interventions_checked=checked,
                )
    return OracleVerdict(influence=False, interventions_checked=checked)


def _ref_exists_local_match(lhs, env_dim, input_points, out_split) -> bool:
    """Whether some intervention on (env, non-target outputs) after the evolution,
    with the target passed through, reproduces ``lhs`` at every input point.

    One exists iff the target passes through wherever ``lhs`` is defined, and
    ``lhs`` (undefined included) is single-valued on each (env, non-target
    output) fibre: the local intervention is then read off fibre by fibre.
    """
    local: dict[tuple[int, int], Optional[tuple[int, int]]] = {}
    for e in range(env_dim):
        for x in input_points:
            rest0, tgt0 = out_split[x]
            hit = lhs[(e, x)]
            if hit is not None:
                e2, rest2, tgt2 = hit
                if tgt2 != tgt0:
                    return False
                hit = (e2, rest2)
            if local.setdefault((e, rest0), hit) != hit:
                return False
    return True


def _same_outcome(u, frm, to, budget):
    """Run the oracle and the reference; both raise the same error or agree."""
    try:
        want = reference_definition_check(u, frm, to, budget)
    except BudgetError:
        with pytest.raises(BudgetError):
            definition_check(u, frm, to, budget)
        return None
    got = definition_check(u, frm, to, budget)
    assert got == want, (u.table, frm, to, budget)
    return got


@pytest.mark.parametrize("cls", ["constants", "atoms", "all-functions"])
def test_definition_check_matches_the_per_intervention_reference(cls):
    blocks = ([], ["A"], ["B"], ["A", "B"])
    outcomes = set()
    for u in classical.all_reversible_channels(BITS):
        for env_dim in (1, 2):
            budget = OracleBudget(env_dim, cls)
            for frm in blocks:
                for to in blocks:
                    got = _same_outcome(u, frm, to, budget)
                    outcomes.add(None if got is None else got.influence)
    assert outcomes == ({True, False, None} if cls == "all-functions" else {True, False})
    outcomes.clear()

    rng = np.random.default_rng(10)
    for _ in range(12):
        system = composite(*((n, int(d)) for n, d in zip("ABC", rng.integers(1, 4, size=3))))
        u = classical.random_reversible(system, rng)
        for env_dim in (1, 2):
            for frm in system.names:
                for to in system.names:
                    _same_outcome(u, [frm], [to], OracleBudget(env_dim, cls))
    # 128 joint inputs, every one read
    system = composite(("A", 4), ("B", 4), ("C", 8))
    u = classical.random_reversible(system, rng)
    budget = OracleBudget(2, cls)
    for frm in system.names:
        for to in system.names:
            _same_outcome(u, [frm], [to], budget)

    # three mixed-radix wires, every block from empty to whole on either side:
    # the target and non-target codes span several digits
    for dims in ((2, 3, 2), (3, 2, 2)):
        system = composite(*zip("ABC", dims))
        blocks = [list(c) for r in range(4) for c in itertools.combinations("ABC", r)]
        idle = ClassicalChannel.identity(composite(("C", dims[2])))
        for u in (
            ClassicalChannel.identity(system),
            classical.random_reversible(composite(*zip("AB", dims)), rng).tensor(idle),
            classical.random_reversible(system, rng),
        ):
            for env_dim in (1, 2):
                for frm in blocks:
                    for to in blocks:
                        got = _same_outcome(u, frm, to, OracleBudget(env_dim, cls))
                        outcomes.add(None if got is None else got.influence)
    assert outcomes == ({True, False, None} if cls == "all-functions" else {True, False})


@pytest.mark.parametrize(
    "frm,to",
    [(["A", "nope"], ["B"]), (["nope"], ["B"]), (["A"], ["nope"]), (["A", "A"], ["B"]), (["A"], ["B", "B"])],
    ids=["unknown-among-known", "unknown-from", "unknown-to", "duplicate-from", "duplicate-to"],
)
def test_definition_check_rejects_unknown_and_duplicate_names(frm, to):
    with pytest.raises(SpecError):
        definition_check(K, frm, to, OracleBudget(1, "constants"))


def test_definition_check_reads_named_wires_in_system_order():
    budget = OracleBudget(2, "atoms")
    assert definition_check(CNOT_ID, ["C", "A"], ["B"], budget) == definition_check(
        CNOT_ID, ["A", "C"], ["B"], budget
    )


def test_definition_check_decodes_each_point_and_output_once_per_pair(monkeypatch):
    calls = 0
    unflatten = CompositeSystem.unflatten

    def counting(self, index):
        nonlocal calls
        calls += 1
        return unflatten(self, index)

    monkeypatch.setattr(CompositeSystem, "unflatten", counting)
    verdict = definition_check(SWAP, ["A"], ["A"], OracleBudget(2, "all-functions"))
    assert not verdict.influence and verdict.interventions_checked > 256
    # each input point, each output and each from-digit, once
    n_inputs, d_from = 4, 2
    assert calls == 2 * n_inputs + d_from == 10


def test_cross_validate_runs_one_relation_pass_and_no_probe_process(monkeypatch):
    from causal_lens import causal, oracle

    relation_calls = 0
    relation = oracle.influence_relation

    def counting(u, *args, **kwargs):
        nonlocal relation_calls
        relation_calls += 1
        return relation(u, *args, **kwargs)

    def no_probe_process(*args, **kwargs):
        raise AssertionError("cross_validate built a probe process")

    monkeypatch.setattr(oracle, "influence_relation", counting)
    monkeypatch.setattr(causal, "t_process", no_probe_process)
    report = cross_validate(CNOT_ID, OracleBudget(1, "atoms"))
    assert relation_calls == 1 and len(report.pairs) == 9 and report.sound


def test_cross_validate_probe_side_matches_has_causal_influence():
    from causal_lens.causal import has_causal_influence

    rng = np.random.default_rng(57)
    for _ in range(10):
        u = classical.random_reversible(composite(("A", 2), ("B", 3), ("C", 2)), rng)
        for p in cross_validate(u, OracleBudget(1, "constants")).pairs:
            assert p.tprocess_influence == has_causal_influence(u, [p.from_wire], [p.to_wire])


def test_oracle_imports_only_the_channel_the_relation_and_the_errors():
    # the oracle stays independent of the probe-process code path: from the
    # library it takes the channel type, the relation it is compared with and
    # the errors, and no private name
    from causal_lens import oracle

    allowed = {"causal": {"influence_relation"}, "classical": {"ClassicalChannel"}, "errors": None}
    imported = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "causal_lens" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "causal_lens":
                continue  # the standard library
            if node.level == 0:
                module = module.partition(".")[2]
            assert module in allowed, module
            for alias in node.names:
                assert not alias.name.startswith("_"), alias.name
                assert allowed[module] is None or alias.name in allowed[module], alias.name
                imported.add(module)
    assert imported == set(allowed)
