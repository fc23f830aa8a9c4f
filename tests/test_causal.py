import ast
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from causal_lens import causal, classical, quantum
from causal_lens.causal import (
    check_interaction_without_disturbance,
    find_witness,
    has_causal_influence,
    hierarchy_report,
    inverse_nosignalling_check,
    memory_decomposition,
    neighbourhood,
    probe_conjugation_matches_evolution,
    replay_witness,
    t_process,
)
from causal_lens.classical import ClassicalChannel, ClassicalInstrument
from causal_lens.errors import SpecError
from causal_lens.oracle import OracleBudget, definition_check
from causal_lens.quantum import UnitaryChannel
from causal_lens.systems import composite

from wiring import embed_on, reorder_wires

BITS = composite(("A", 2), ("B", 2))


def bit_channel(fn):
    """Two-bit channel from an explicit (a, b) -> (a', b') rule."""
    table = [fn(a, b)[0] * 2 + fn(a, b)[1] for a in range(2) for b in range(2)]
    return ClassicalChannel(BITS, BITS, tuple(table))


K = bit_channel(lambda a, b: (a, a ^ b))  # controlled-not, control A
XORBACK = bit_channel(lambda a, b: (a ^ b, b))
SWAP = bit_channel(lambda a, b: (b, a))
IDENT = ClassicalChannel.identity(BITS)


# -- probe process -----------------------------------------------------------------


def test_t_process_identity_is_copy_swap():
    tp = t_process(IDENT, ["A"])
    assert tp.probe_copies == ("A_1",)
    assert tp.idle_subset == frozenset({"B"})
    # (a1, a', b') -> (a', a1, b')
    sys3 = tp.channel.input
    for a1 in range(2):
        for ap in range(2):
            for bp in range(2):
                got = tp.channel.apply_values((a1, ap, bp))
                assert got == (ap, a1, bp)
    # the factor on the idle set is the swap of the copy with A'
    assert tp.channel.factors_as_identity(tp.idle_subset).table == (0, 2, 1, 3)


def test_t_process_cnot_probe_control():
    tp = t_process(K, ["A"])
    # evaluated via K applied twice around the copy swap: (a1,a',b') -> (a', a1, a1^a'^b')
    expected = {
        (a1, ap, bp): (ap, a1, a1 ^ ap ^ bp)
        for a1 in range(2)
        for ap in range(2)
        for bp in range(2)
    }
    for vals, want in expected.items():
        assert tp.channel.apply_values(vals) == want
    assert tp.idle_subset == frozenset()
    assert tp.channel.factors_as_identity(tp.idle_subset).table == tp.channel.table


def test_t_process_cnot_probe_target():
    tp = t_process(K, ["B"])
    # (b1,a',b') -> (a'^b', a', a'^b1); A' output matches its input pointwise,
    # but the copy output depends on a', so A' is not an identity factor
    for b1 in range(2):
        for ap in range(2):
            for bp in range(2):
                assert tp.channel.apply_values((b1, ap, bp)) == (ap ^ bp, ap, ap ^ b1)
    assert tp.idle_subset == frozenset()


def test_t_process_rejects_unknown_probe():
    with pytest.raises(SpecError):
        t_process(K, ["Z"])


DUPLICATE_NAME_CALLS = {
    "t_process": lambda u: t_process(u, ["A", "A"]),
    "neighbourhood": lambda u: neighbourhood(u, ["B", "B"]),
    "has_causal_influence-from": lambda u: has_causal_influence(u, ["B", "B"], ["A"]),
    "has_causal_influence-to": lambda u: has_causal_influence(u, ["B"], ["A", "A"]),
    "hierarchy_report": lambda u: hierarchy_report(u, ["B", "B"], ["A"]),
    "memory_decomposition": lambda u: memory_decomposition(u, ["B"], ["A", "A"]),
    "find_witness": lambda u: find_witness(u, ["B", "B"], ["A"]),
    "inverse_nosignalling_check": lambda u: inverse_nosignalling_check(u, ["B"], ["A", "A"]),
    "niwd": lambda u: check_interaction_without_disturbance(u, ["A", "A"]),
    "signals-from": lambda u: u.signals(["B", "B"], ["A"]),
    "signals-to": lambda u: u.signals(["B"], ["A", "A"]),
}


@pytest.mark.parametrize("model", ["classical", "quantum"])
@pytest.mark.parametrize("call", sorted(DUPLICATE_NAME_CALLS))
def test_a_name_given_twice_is_rejected(call, model):
    u = K if model == "classical" else quantum.from_classical(K)
    with pytest.raises(SpecError, match="duplicate names"):
        DUPLICATE_NAME_CALLS[call](u)


def test_t_process_idle_subset_is_maximal():
    rng = np.random.default_rng(17)
    sys3 = composite(("x", 2), ("y", 2), ("z", 2))
    for _ in range(20):
        u = classical.random_reversible(sys3, rng)
        tp = t_process(u, ["x"])
        assert tp.channel.factors_as_identity(tp.idle_subset) is not None
        for extra in set(tp.outputs) - tp.idle_subset:
            bigger = tp.idle_subset | {extra}
            assert tp.channel.factors_as_identity(bigger) is None


def test_t_process_quantum_matches_classical_on_permutations():
    for u_c, probe in [(K, ["A"]), (K, ["B"]), (SWAP, ["A"])]:
        u_q = quantum.from_classical(u_c)
        tp_c = t_process(u_c, probe)
        tp_q = t_process(u_q, probe)
        assert tp_q.idle_subset == tp_c.idle_subset
        perm = quantum.from_classical(tp_c.channel).matrix
        assert np.max(np.abs(tp_q.channel.matrix - perm)) <= 1e-9


# -- neighbourhoods and influence ---------------------------------------------------


def test_neighbourhoods_of_fixtures():
    assert neighbourhood(K, ["A"]) == {"A", "B"}
    assert neighbourhood(K, ["B"]) == {"A", "B"}
    assert neighbourhood(SWAP, ["A"]) == {"B"}
    assert neighbourhood(IDENT, ["A"]) == {"A"}


def test_causal_influence_cnot():
    assert has_causal_influence(K, ["B"], ["A"])  # no signalling, still influence
    assert has_causal_influence(K, ["B"], ["B"])
    assert not has_causal_influence(IDENT, ["A"], ["B"])


def test_signalling_relation_fixtures():
    assert not K.signals(["B"], ["A"])
    assert quantum.cnot().signals(["B"], ["A"])  # kickback
    assert not IDENT.signals(["A"], ["B"])


def test_neighbourhood_union_law_classical():
    rng = np.random.default_rng(21)
    sys3 = composite(("x", 2), ("y", 3), ("z", 2))
    for _ in range(25):
        u = classical.random_reversible(sys3, rng)
        singles = {n: neighbourhood(u, [n]) for n in sys3.names}
        for i, j in [("x", "y"), ("y", "z"), ("x", "z")]:
            assert neighbourhood(u, [i, j]) == singles[i] | singles[j]


def test_neighbourhood_union_law_quantum():
    rng = np.random.default_rng(22)
    sys2 = composite(("x", 2), ("y", 2))
    for _ in range(8):
        u = quantum.random_unitary(sys2, rng)
        assert neighbourhood(u, ["x", "y"]) == neighbourhood(u, ["x"]) | neighbourhood(u, ["y"])


def test_probe_commutation_classical():
    rng = np.random.default_rng(23)
    sys3 = composite(("x", 2), ("y", 2), ("z", 3))
    for _ in range(15):
        u = classical.random_reversible(sys3, rng)
        tx = t_process(u, ["x"]).channel
        ty = t_process(u, ["y"]).channel
        common = composite(("x_1", 2), ("y_1", 2)).concat(u.output)
        ex, ey = embed_on(tx, common), embed_on(ty, common)
        assert ex.compose(ey).table == ey.compose(ex).table


def test_probe_commutation_quantum():
    rng = np.random.default_rng(24)
    sys2 = composite(("x", 2), ("y", 2))
    for _ in range(6):
        u = quantum.random_unitary(sys2, rng)
        tx = t_process(u, ["x"]).channel
        ty = t_process(u, ["y"]).channel
        common = composite(("x_1", 2), ("y_1", 2)).concat(u.output)
        ex, ey = embed_on(tx, common), embed_on(ty, common)
        assert np.max(np.abs(ex.compose(ey).matrix - ey.compose(ex).matrix)) <= 1e-9


# -- probe conjugation identity ------------------------------------------------------


def test_probe_conjugation_identity_cnot_constant():
    env = composite(("E", 1))
    inst = ClassicalInstrument.constant(env.concat(composite(("A_1", 2))), env.concat(composite(("A_1", 2))), 0)
    assert probe_conjugation_matches_evolution(K, ["A"], inst)


def test_probe_conjugation_identity_random_sweep():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n_wires = rng.integers(2, 4)
        dims = [int(rng.integers(2, 4)) for _ in range(n_wires)]
        sys_n = composite(*((f"w{k}", d) for k, d in enumerate(dims)))
        u = classical.random_reversible(sys_n, rng)
        probe = [f"w{rng.integers(0, n_wires)}"]
        d_probe = sys_n.parts[sys_n.position(probe[0])].dim
        d_env = int(rng.integers(1, 4))
        joint = composite(("E", d_env), ("P", d_probe))
        if rng.random() < 0.5:
            table = tuple(int(v) for v in rng.integers(0, joint.total_dim, joint.total_dim))
            inst = ClassicalInstrument(joint, joint, table)
        else:
            inst = ClassicalInstrument.atom(
                joint, joint, int(rng.integers(0, joint.total_dim)), int(rng.integers(0, joint.total_dim))
            )
        assert probe_conjugation_matches_evolution(u, probe, inst)


# -- memory decomposition -------------------------------------------------------------


def test_memory_cnot_from_target_exists():
    dec = memory_decomposition(K, ["B"], ["A"])
    assert dec is not None
    assert dec.env.dims == (2,)
    # v copies its input: x -> (x, x); w xors: (y, e) -> y ^ e
    assert dec.v.table == (0, 3)
    assert dec.w.table == (0, 1, 1, 0)
    assert dec.discarded.dims == ()  # w discards no wire


def test_memory_cnot_from_control_missing():
    assert memory_decomposition(K, ["A"], ["B"]) is None  # A signals B'


def test_memory_identity():
    dec = memory_decomposition(IDENT, ["A"], ["B"])
    assert dec is not None
    # v(y) = (y, y), w(x, e) = x
    assert dec.v.table == (0, 3)
    assert dec.w.table == (0, 0, 1, 1)


def test_memory_classical_matches_nosignalling_on_random():
    rng = np.random.default_rng(41)
    sys2 = composite(("A", 2), ("B", 3))
    for _ in range(40):
        u = classical.random_reversible(sys2, rng)
        dec = memory_decomposition(u, ["A"], ["B"])
        assert (dec is not None) == (not u.signals(["A"], ["B"]))


def test_memory_quantum_cnot():
    u = quantum.cnot()
    assert memory_decomposition(u, ["A"], ["B"]) is None  # quantum CNOT signals both ways
    dec = memory_decomposition(quantum.UnitaryChannel.identity(BITS), ["A"], ["B"])
    assert dec is not None
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    out = dec.v @ rho @ dec.v.conj().T
    assert out.shape == (4, 4)
    assert abs(np.trace(out) - 1) <= 1e-9


def test_memory_quantum_product_channel():
    rng = np.random.default_rng(42)
    va = quantum.random_unitary(composite(("A", 2)), rng)
    vb = quantum.random_unitary(composite(("B", 2)), rng)
    u = va.tensor(vb)
    dec = memory_decomposition(u, ["A"], ["B"])
    assert dec is not None
    sigma = dec.v @ (np.eye(2, dtype=complex) / 2) @ dec.v.conj().T
    kept = sigma.reshape(2, 2, 2, 2)
    target_marginal = np.trace(kept, axis1=0, axis2=2)
    assert np.max(np.abs(target_marginal - vb.matrix @ (np.eye(2) / 2) @ vb.matrix.conj().T)) <= 1e-9


# -- hierarchy -----------------------------------------------------------------------


@pytest.mark.parametrize("case", ["witness", "memory"])
def test_hierarchy_report_builds_one_probe_process(monkeypatch, case):
    rng = np.random.default_rng(43)
    if case == "witness":
        u = quantum.cnot()  # signals A -> B: influence with a witness
    else:
        u = quantum.random_unitary(composite(("A", 2)), rng).tensor(
            quantum.random_unitary(composite(("B", 2)), rng)
        )
    built = []
    real = causal.t_process
    monkeypatch.setattr(causal, "t_process", lambda *a, **k: built.append(a) or real(*a, **k))
    rep = hierarchy_report(u, ["A"], ["B"])
    assert (rep.witness is not None) == (case == "witness")
    assert rep.memory_decomposable == (case == "memory")
    assert len(built) == 1


def spy_on(monkeypatch, targets):
    """Record the name of each call to the ``(owner, name)`` targets, in call order."""
    calls = []
    for owner, name in targets:
        def spy(*args, _real=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    return calls


PROBE_PASSES = [
    (causal, "t_process"),
    (ClassicalChannel, "_probe_pass"),
    (UnitaryChannel, "_probe_pass"),
]


def spectator_beside_a_gate():
    """A seed-5 random unitary on (A, C) beside an idle B, wires listed (A, C, B)."""
    ac = quantum.random_unitary(composite(("A", 2), ("C", 2)), np.random.default_rng(5))
    return ac.tensor(UnitaryChannel.identity(composite(("B", 2))))


@pytest.mark.parametrize(
    "u,frm,idle,factors",
    [
        (K, ["B"], ["A"], 0),
        (spectator_beside_a_gate(), ["A"], ["B"], 1),
        (quantum.swap_gate(), ["A"], ["A"], 1),
    ],
    ids=["classical-cnot", "quantum-spectator", "quantum-swap"],
)
def test_memory_decomposition_runs_no_probe_pass(monkeypatch, u, frm, idle, factors):
    # the idle set is given: the classical legs read the table, the quantum legs
    # one factor of the bare probe
    calls = spy_on(monkeypatch, PROBE_PASSES + [(quantum, "_identity_factor")])
    assert memory_decomposition(u, frm, idle) is not None
    assert calls == ["_identity_factor"] * factors


def test_probe_conjugation_runs_no_probe_pass(monkeypatch):
    calls = spy_on(monkeypatch, PROBE_PASSES)
    assert probe_conjugation_matches_evolution(K, ["A"], ClassicalInstrument.identity(composite(("A", 2))))
    assert calls == []


def test_hierarchy_cnot_target_to_control():
    rep = hierarchy_report(K, ["B"], ["A"])
    assert (rep.causal_influence, rep.memory_decomposable, rep.signalling) == (True, True, False)
    assert rep.consistent
    assert rep.witness is not None and replay_witness(K, rep.witness)


def test_hierarchy_identity():
    rep = hierarchy_report(IDENT, ["A"], ["B"])
    assert (rep.causal_influence, rep.memory_decomposable, rep.signalling) == (False, True, False)
    assert rep.consistent and rep.witness is None


def test_hierarchy_swap():
    rep = hierarchy_report(SWAP, ["A"], ["B"])
    assert (rep.causal_influence, rep.memory_decomposable, rep.signalling) == (True, False, True)
    assert rep.consistent


def test_hierarchy_chain_random_classical():
    rng = np.random.default_rng(43)
    for _ in range(30):
        dims = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(2, 4)))]
        sys_n = composite(*((f"w{k}", d) for k, d in enumerate(dims)))
        u = classical.random_reversible(sys_n, rng)
        frm = [f"w{rng.integers(0, len(dims))}"]
        others = [n for n in sys_n.names]
        to = [others[int(rng.integers(0, len(others)))]]
        rep = hierarchy_report(u, frm, to)
        assert rep.consistent
        assert rep.memory_decomposable == (not rep.signalling)  # classical collapse


def test_hierarchy_quantum_collapse_smoke():
    rng = np.random.default_rng(44)
    for _ in range(10):
        u = quantum.random_unitary(BITS, rng)
        for frm in ("A", "B"):
            for to in ("A", "B"):
                rep = hierarchy_report(u, [frm], [to])
                assert rep.consistent
                assert rep.causal_influence == rep.signalling  # quantum collapse


REPORTS = {
    "classical-witness": lambda: hierarchy_report(K, ["B"], ["A"]),
    "classical-none": lambda: hierarchy_report(IDENT, ["A"], ["B"]),
    "classical-trit-witness": lambda: hierarchy_report(classical.cnot(3), ["A"], ["B"]),
    "quantum-signalling-witness": lambda: hierarchy_report(quantum.cnot(), ["A"], ["B"]),
    "quantum-none": lambda: hierarchy_report(quantum.from_classical(IDENT), ["A"], ["B"]),
    "classical-niwd": lambda: check_interaction_without_disturbance(XORBACK),
    "classical-niwd-none": lambda: check_interaction_without_disturbance(IDENT),
    "quantum-niwd": lambda: check_interaction_without_disturbance(quantum.cnot()),
    "quantum-niwd-xorback": lambda: check_interaction_without_disturbance(
        quantum.from_classical(XORBACK)
    ),
}


@pytest.mark.parametrize("case", sorted(REPORTS))
def test_report_to_dict_serializes_as_the_deep_copy_would(case):
    rep = REPORTS[case]()
    deep = asdict(rep)
    if "from_in" in deep:
        deep["from"], deep["to"] = deep.pop("from_in"), deep.pop("to_out")
    out = rep.to_dict()
    assert list(out) == list(deep)
    assert json.dumps(out, sort_keys=True) == json.dumps(deep, sort_keys=True)


def test_report_cases_cover_both_models_with_and_without_a_witness():
    hier = {c: REPORTS[c]() for c in REPORTS if "niwd" not in c}
    kinds = {(c.split("-")[0], r.witness is None) for c, r in hier.items()}
    assert kinds == {(m, w) for m in ("classical", "quantum") for w in (False, True)}


# -- interaction without disturbance ---------------------------------------------------


def test_niwd_xor_feedback_is_witness():
    res = check_interaction_without_disturbance(XORBACK)
    assert res.premise_holds and not res.factorizes
    assert res.verdict == "interaction-without-disturbance witness"
    assert res.forced_influence is True


def test_niwd_identity_no_interaction():
    res = check_interaction_without_disturbance(IDENT)
    assert res.verdict == "no-interaction"


def test_niwd_cnot_disturbing():
    res = check_interaction_without_disturbance(K)
    assert res.verdict == "disturbing"
    assert not res.premise_holds


def test_niwd_quantum():
    assert check_interaction_without_disturbance(quantum.cnot()).verdict == "disturbing"
    u = quantum.random_unitary(composite(("A", 2)), np.random.default_rng(3)).tensor(
        UnitaryChannel.identity(composite(("B", 2)))
    )
    assert check_interaction_without_disturbance(u).verdict == "no-interaction"


@pytest.mark.parametrize("cls", [ClassicalChannel, UnitaryChannel])
def test_idle_wires_pair_by_name_when_outputs_are_listed_in_another_order(cls):
    system = composite(("A", 2), ("B", 2), ("C", 3))
    u = reorder_wires(cls.identity(system), output_order=["A", "C", "B"])
    for idle in [("B", "C"), ("C", "B")]:
        w = u.factors_as_identity(idle)
        assert w is not None and w.input.names == w.output.names == ("A",)
    res = check_interaction_without_disturbance(u, ["A"])
    assert (res.premise_holds, res.factorizes, res.verdict) == (True, True, "no-interaction")


def test_niwd_forced_influence_on_random_sweep():
    rng = np.random.default_rng(45)
    found_witness_case = 0
    for _ in range(200):
        u = classical.random_reversible(BITS, rng)
        res = check_interaction_without_disturbance(u)
        if res.premise_holds and not res.factorizes:
            found_witness_case += 1
            assert res.forced_influence is True
    assert found_witness_case > 0


def test_niwd_requires_matching_systems():
    with pytest.raises(SpecError):
        check_interaction_without_disturbance(K.with_names(output_names=("A'", "B'")))


# -- inverse no-signalling -------------------------------------------------------------


def test_inverse_nosignalling_cnot_roles():
    assert inverse_nosignalling_check(K, ["B"], ["A"])
    assert inverse_nosignalling_check(IDENT, ["A"], ["B"])


def test_inverse_nosignalling_requires_nosignalling():
    with pytest.raises(SpecError):
        inverse_nosignalling_check(K, ["A"], ["B"])


def test_inverse_nosignalling_random_trits():
    rng = np.random.default_rng(46)
    sys2 = composite(("A", 3), ("B", 3))
    checked = 0
    for _ in range(300):
        u = classical.random_reversible(sys2, rng)
        if not u.signals(["A"], ["B"]):
            checked += 1
            assert inverse_nosignalling_check(u, ["A"], ["B"])
    assert checked > 0


def test_inverse_nosignalling_quantum():
    rng = np.random.default_rng(47)
    va = quantum.random_unitary(composite(("A", 2)), rng)
    vb = quantum.random_unitary(composite(("B", 2)), rng)
    assert inverse_nosignalling_check(va.tensor(vb), ["A"], ["B"])
    assert inverse_nosignalling_check(quantum.UnitaryChannel.identity(BITS), ["A"], ["B"])


# -- witnesses --------------------------------------------------------------------------


def test_witness_cnot_is_constant_zero():
    w = find_witness(K, ["B"], ["A"])
    assert w.kind == "intervention"
    assert w.detail["intervention_class"] == "constant"
    assert w.detail["intervention"] == [0, 0]
    assert w.detail["violation"]["type"] == "independence"
    assert replay_witness(K, w)


def test_witness_swap():
    w = find_witness(SWAP, ["A"], ["B"])
    assert w.kind == "intervention"
    assert w.detail["intervention_class"] == "constant"
    assert replay_witness(SWAP, w)


def test_witness_quantum_cnot_kickback():
    u = quantum.cnot()
    w = find_witness(u, ["B"], ["A"])
    assert w.kind == "factorization-defect"
    assert w.detail["variant"] == "signalling-identity"
    assert replay_witness(u, w)


def test_quantum_influence_and_signalling_agree_inside_the_tolerance_band():
    # one delta decides both, so no tol separates them, and every witness of
    # influence is an entry of the signalling identity that replays
    rng = np.random.default_rng(11)
    system = composite(("A", 3), ("B", 2))
    cases = 0
    for _ in range(10):
        h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        w, v = np.linalg.eigh(h + h.conj().T)
        u = UnitaryChannel(system, system, (v * np.exp(0.03j * w)) @ v.conj().T)
        for tol in np.geomspace(1e-2, 0.5, 30):
            influence = has_causal_influence(u, ["A"], ["B"], tol)
            assert u.signals(["A"], ["B"], tol) == influence
            if not influence:
                continue
            cases += 1
            wit = find_witness(u, ["A"], ["B"], tol)
            assert wit.detail["variant"] == "signalling-identity"
            assert wit.detail["actual"] != wit.detail["expected"]
            assert replay_witness(u, wit, tol)
    assert cases > 0


def test_a_constant_preparation_witnesses_every_classical_influence():
    # the witness is the oracle's first witness at the constants budget
    rng = np.random.default_rng(48)
    channels = list(classical.all_reversible_channels(BITS))
    channels += classical.all_reversible_channels(composite(("A", 2), ("B", 3)))
    for dims in [(2, 2, 2), (2, 3, 2)]:
        system = composite(*zip("ABC", dims))
        channels += [classical.random_reversible(system, rng) for _ in range(40)]
    classes = set()
    for u in channels:
        blocks = [(w,) for w in u.input.names] + [u.input.names[:2]]
        for frm in blocks:
            tp = t_process(u, frm)
            for to in blocks:
                if not tp.idle_subset.issuperset(to):
                    kind, detail = u._witness(tp.probed, to)
                    classes.add(detail["intervention_class"])
                    verdict = definition_check(u, frm, to, OracleBudget(1, "constants"))
                    assert kind == "intervention"
                    assert tuple(detail["intervention"]) == verdict.witness_table
                    assert detail["env_dim"] == verdict.env_dim == 1
    assert classes == {"constant"}


def test_witness_requires_influence():
    with pytest.raises(SpecError):
        find_witness(IDENT, ["A"], ["B"])


def test_a_witness_of_the_other_model_does_not_replay():
    lift = quantum.from_classical(classical.cnot())
    with pytest.raises(SpecError, match="quantum channel cannot replay a witness of kind 'intervention'"):
        replay_witness(lift, find_witness(classical.cnot(), ["A"], ["B"]))
    with pytest.raises(SpecError, match="classical channel cannot replay .* 'factorization-defect'"):
        replay_witness(classical.cnot(), find_witness(lift, ["A"], ["B"]))


def test_probe_conjugation_covers_the_classical_model_only(monkeypatch):
    u, identity = quantum.cnot(), ClassicalInstrument.identity(composite(("A", 2)))
    # the refusal comes before any probe is formed or certified
    calls = spy_on(
        monkeypatch, PROBE_PASSES + [(UnitaryChannel, "_probes"), (quantum, "_certify_unitary")]
    )
    with pytest.raises(SpecError, match="covers the classical model only"):
        probe_conjugation_matches_evolution(u, ["A"], identity)
    assert calls == []


# -- mixed-radix tables against a per-point reference -----------------------------------


def _mixed_radix_channel(seed):
    """A seeded 3-4 wire channel of dims 1-3, built from a few two-wire gates."""
    rng = np.random.default_rng(seed)
    n = 3 + seed % 2
    system = composite(*zip("ABCD", (int(d) for d in rng.integers(1, 4, size=n))))
    u = ClassicalChannel.identity(system)
    for _ in range(1 + seed % 3):
        pair = [system.names[k] for k in sorted(rng.choice(n, 2, replace=False))]
        u = embed_on(classical.random_reversible(system.select(pair), rng), system).compose(u)
    return u


def _pick(system, index, names):
    """Per-point: the joint index of ``select(names)`` read off one joint index."""
    values = system.unflatten(index)
    return system.select(names).flatten([values[system.position(n)] for n in names])


def _evolve(u, parts):
    """Per-point: u applied to the input given as {wire: value}."""
    return u.table[u.input.flatten([parts[n] for n in u.input.names])]


def _candidates(d_from):
    """Constants, atoms and the copy-swap, in the order the reference tries them."""
    out = [(1, (j,) * d_from, "constant") for j in range(d_from)]
    out += [
        (1, tuple(j if k == i else None for k in range(d_from)), "atom")
        for i in range(d_from)
        for j in range(d_from)
    ]
    swap = tuple(a * d_from + e for e in range(d_from) for a in range(d_from))
    return out + [(d_from, swap, "copy-swap")]


def _reference_violation(u, frm, to, env_dim, table):
    """Per-point: the first (env, output) point breaking the target-local form."""
    from_sys = u.input.select(frm)
    d_from = from_sys.total_dim
    rest = u.output.complement(to)
    inverse = u.invert().table
    fibres = {}
    for e in range(env_dim):
        for z in range(u.output.total_dim):
            x = dict(zip(u.input.names, u.input.unflatten(inverse[z])))
            hit = table[e * d_from + from_sys.flatten([x[n] for n in frm])]
            z_to, z_rest = _pick(u.output, z, to), _pick(u.output, z, rest)
            summary = None
            if hit is not None:
                e2, a2 = divmod(hit, d_from)
                x.update(zip(frm, from_sys.unflatten(a2)))
                z2 = _evolve(u, x)
                if _pick(u.output, z2, to) != z_to:
                    return {
                        "type": "pass-through",
                        "points": [[e, z]],
                        "target_in": z_to,
                        "target_out": _pick(u.output, z2, to),
                    }
                summary = (e2, _pick(u.output, z2, rest))
            first = fibres.setdefault((e, z_rest), (summary, [e, z]))
            if first[0] != summary:
                return {"type": "independence", "points": [first[1], [e, z]]}
    return None


def _reference_witness(u, frm, to):
    for env_dim, table, label in _candidates(u.input.select(frm).total_dim):
        violation = _reference_violation(u, frm, to, env_dim, table)
        if violation is not None:
            return {
                "acting_on": list(frm),
                "target": list(to),
                "env_dim": env_dim,
                "intervention": list(table),
                "intervention_class": label,
                "violation": violation,
            }
    raise AssertionError("the copy-swap witnesses every influence")


@pytest.mark.parametrize("seed", range(16))
def test_mixed_radix_memory_and_witness_match_per_point_reference(seed):
    u = _mixed_radix_channel(seed)
    names = u.input.names
    blocks = [(n,) for n in names] + [names[:2], names[1:]]
    for frm in blocks:
        for to in blocks:
            if has_causal_influence(u, frm, to):
                assert find_witness(u, frm, to).detail == _reference_witness(u, frm, to)
            if len(frm) == 1:  # every candidate, not only the first that witnesses
                for env_dim, table, _ in _candidates(u.input.select(frm).total_dim):
                    conj = classical._conjugated_table(u, frm, env_dim, table)
                    assert classical._local_form_violation(
                        conj, env_dim, u.output, to
                    ) == _reference_violation(u, frm, to, env_dim, table)
            dec = memory_decomposition(u, frm, to)
            if dec is None:
                assert u.signals(frm, to)
                continue
            b_names = u.input.complement(frm)
            a_sys, b_sys = u.input.select(frm), u.input.select(b_names)
            d_bp = u.output.select(to).total_dim
            ap_names = u.output.complement(to)
            v_ref = []
            for y in range(b_sys.total_dim):
                parts = {n: 0 for n in frm} | dict(zip(b_names, b_sys.unflatten(y)))
                v_ref.append(y * d_bp + _pick(u.output, _evolve(u, parts), to))
            w_ref = []
            for a in range(a_sys.total_dim):
                for e in range(b_sys.total_dim):
                    parts = dict(zip(frm, a_sys.unflatten(a)))
                    parts.update(zip(b_names, b_sys.unflatten(e)))
                    w_ref.append(_pick(u.output, _evolve(u, parts), ap_names))
            assert dec.v.table == tuple(v_ref)
            assert dec.w.table == tuple(w_ref)


# -- the model seam ---------------------------------------------------------------------


def test_causal_imports_no_private_name_and_never_branches_on_the_model():
    # causal states each definition once and reaches a model only through the
    # protocol its channel type implements: no private name from the models'
    # modules or from systems, and no isinstance on a channel class
    seams = {"classical", "quantum", "systems"}
    channels = {"ClassicalChannel", "UnitaryChannel", "Channel"}
    imported = set()
    for node in ast.walk(ast.parse(Path(causal.__file__).read_text())):
        if isinstance(node, ast.Import):
            assert not any(a.name.partition("causal_lens.")[2] in seams for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("causal_lens.")
            assert module or not {a.name for a in node.names} & seams, "a module import"
            if module in seams:
                for alias in node.names:
                    assert not alias.name.startswith("_"), f"{module}.{alias.name}"
                imported.add(module)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            named = {n.id for arg in node.args[1:] for n in ast.walk(arg) if isinstance(n, ast.Name)}
            assert not named & channels, ast.unparse(node)
    assert imported == seams
