import numpy as np
import pytest

from causal_lens import classical
from causal_lens.classical import ClassicalChannel
from causal_lens.errors import BudgetError, SpecError
from causal_lens.oracle import OracleBudget, cross_validate, definition_check
from causal_lens.systems import composite

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
