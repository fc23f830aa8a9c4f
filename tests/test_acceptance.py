"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from causal_lens import classical, quantum
from causal_lens.automata import build_ring, cone_growth, neighbourhood_map
from causal_lens.causal import (
    check_interaction_without_disturbance,
    embed_on,
    has_causal_influence,
    memory_decomposition,
    neighbourhood,
    probe_conjugation_matches_evolution,
    t_process,
)
from causal_lens.classical import ClassicalChannel, ClassicalInstrument, all_reversible_channels
from causal_lens.cli import main
from causal_lens.oracle import OracleBudget, cross_validate
from causal_lens.systems import composite

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TOL = 1e-9
UNITARY_SEED = 20240915


@contextmanager
def criterion(number, description, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, (
        f"criterion {number} exceeded its runtime budget: {elapsed:.2f}s >= {budget_s}s"
    )
    print(f"criterion {number}: PASS ({elapsed:.2f}s < {budget_s:.0f}s) - {description}")


def hundred_two_qubit_unitaries():
    rng = np.random.default_rng(UNITARY_SEED)
    sys2 = composite(("A", 2), ("B", 2))
    return [quantum.random_unitary(sys2, rng) for _ in range(100)]


def test_criterion_1_classical_cnot_separation(capsys):
    with criterion(1, "classical C-NOT separates signalling from causal influence", 1.0):
        code = main(["analyze", str(FIXTURES / "cnot.json"), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["signalling"]["B"]["A'"] is False
        assert payload["causal"]["B"]["A'"] is True


def test_criterion_2_oracle_agreement_on_all_two_bit_channels():
    with criterion(2, "oracle agrees with the probe process on all 24 two-bit channels", 10.0):
        budget = OracleBudget(max_env_dim=2, intervention_class="all-functions")
        for u in all_reversible_channels(composite(("A", 2), ("B", 2))):
            report = cross_validate(u, budget)
            assert report.sound, f"soundness violation for table {u.table}"
            assert report.full_agreement, f"disagreement for table {u.table}"


def _local_gate_channel(system, rng):
    """Two random two-wire gates on random wire pairs: leaves no-influence pairs."""
    u = ClassicalChannel.identity(system)
    for _ in range(2):
        pair = [system.names[k] for k in sorted(rng.choice(len(system), 2, replace=False))]
        u = embed_on(classical.random_reversible(system.select(pair), rng), system).compose(u)
    return u


def test_criterion_2_oracle_agreement_on_three_wire_sample():
    with criterion(2, "oracle agrees with the probe process on a seeded 3-wire sample", 10.0):
        rng = np.random.default_rng(20261018)
        for dims, classes in (
            ((2, 2, 2), ("constants", "atoms", "all-functions")),
            ((2, 3, 2), ("constants", "atoms")),
        ):
            system = composite(*zip("ABC", dims))
            for k in range(8):
                u = (
                    classical.random_reversible(system, rng)
                    if k % 4 == 0
                    else _local_gate_channel(system, rng)
                )
                for cls in classes:
                    report = cross_validate(u, OracleBudget(max_env_dim=2, intervention_class=cls))
                    assert report.sound, f"soundness violation for table {u.table} ({cls})"
                    assert report.full_agreement, f"disagreement for table {u.table} ({cls})"


def test_criterion_3_quantum_collapse():
    with criterion(3, "signalling equals causal influence on 100 random 2-qubit unitaries", 30.0):
        for u in hundred_two_qubit_unitaries():
            hood = {n: neighbourhood(u, [n], TOL) for n in ("A", "B")}
            for frm in ("A", "B"):
                for to in ("A", "B"):
                    assert u.signals([frm], [to], TOL) == (to in hood[frm])
        kicked = quantum.cnot(out_names=("A'", "B'"))
        assert kicked.signals(["B"], ["A'"], TOL)


def _proper_subsets(names):
    out = []
    for r in range(1, len(names)):
        out.extend(itertools.combinations(names, r))
    return out


def test_criterion_4_hierarchy_chain():
    with criterion(4, "hierarchy chain over 200 classical channels and the 100 unitaries", 60.0):
        rng = np.random.default_rng(77)
        for _ in range(200):
            n_wires = int(rng.integers(2, 4))
            dims = [int(rng.integers(2, 4)) for _ in range(n_wires)]
            sys_n = composite(*((f"w{k}", d) for k, d in enumerate(dims)))
            u = classical.random_reversible(sys_n, rng)
            froms = _proper_subsets(sys_n.names)
            for frm in froms:
                for to in _proper_subsets(sys_n.names):
                    causal = has_causal_influence(u, frm, to)
                    memory = memory_decomposition(u, frm, to) is not None
                    sig = u.signals(frm, to)
                    assert causal or memory, "no-influence must imply decomposability"
                    assert not (memory and sig), "decomposability must imply no-signalling"
                    assert memory == (not sig), "classical collapse failed"
        for u in hundred_two_qubit_unitaries():
            for frm in ("A", "B"):
                for to in ("A", "B"):
                    causal = has_causal_influence(u, [frm], [to], TOL)
                    memory = memory_decomposition(u, [frm], [to], TOL) is not None
                    sig = u.signals([frm], [to], TOL)
                    assert causal or memory
                    assert not (memory and sig)


def test_criterion_5_probe_conjugation_identity():
    with criterion(5, "probe conjugation identity on 50 random (channel, intervention) triples", 30.0):
        rng = np.random.default_rng(55)
        for _ in range(50):
            n_wires = int(rng.integers(2, 4))
            dims = [int(rng.integers(2, 4)) for _ in range(n_wires)]
            sys_n = composite(*((f"w{k}", d) for k, d in enumerate(dims)))
            u = classical.random_reversible(sys_n, rng)
            probe = [f"w{int(rng.integers(0, n_wires))}"]
            d_probe = dims[int(probe[0][1:])]
            d_env = int(rng.integers(1, 4))
            joint = composite(("E", d_env), ("P", d_probe))
            if rng.random() < 0.5:
                table = tuple(int(v) for v in rng.integers(0, joint.total_dim, joint.total_dim))
                inst = ClassicalInstrument(joint, joint, table)
            else:
                inst = ClassicalInstrument.atom(
                    joint,
                    joint,
                    int(rng.integers(0, joint.total_dim)),
                    int(rng.integers(0, joint.total_dim)),
                )
            assert probe_conjugation_matches_evolution(u, probe, inst)


def test_criterion_6_neighbourhood_laws():
    with criterion(6, "union law and probe commutation, classical and quantum", 60.0):
        rng = np.random.default_rng(66)
        for _ in range(50):
            dims = [int(rng.integers(2, 4)) for _ in range(3)]
            sys3 = composite(*((f"w{k}", d) for k, d in enumerate(dims)))
            u = classical.random_reversible(sys3, rng)
            singles = {n: neighbourhood(u, [n]) for n in sys3.names}
            for i, j in itertools.combinations(sys3.names, 2):
                assert neighbourhood(u, [i, j]) == singles[i] | singles[j]
                ti = t_process(u, [i]).channel
                tj = t_process(u, [j]).channel
                common = composite((f"{i}_1", dims[int(i[1:])]), (f"{j}_1", dims[int(j[1:])])).concat(u.output)
                ei, ej = embed_on(ti, common), embed_on(tj, common)
                assert ei.compose(ej).table == ej.compose(ei).table
        qsys = composite(("a", 2), ("b", 2), ("c", 2))
        for _ in range(20):
            u = quantum.random_unitary(qsys, rng)
            singles = {n: neighbourhood(u, [n], TOL) for n in qsys.names}
            for i, j in itertools.combinations(qsys.names, 2):
                assert neighbourhood(u, [i, j], TOL) == singles[i] | singles[j]
                ti = t_process(u, [i], TOL).channel
                tj = t_process(u, [j], TOL).channel
                common = composite((f"{i}_1", 2), (f"{j}_1", 2)).concat(u.output)
                ei, ej = embed_on(ti, common), embed_on(tj, common)
                gap = np.max(np.abs(ei.compose(ej).matrix - ej.compose(ei).matrix))
                assert gap <= TOL


def test_criterion_7_niwd_classification():
    with criterion(7, "interaction-without-disturbance classification and forced influence", 10.0):
        assert (
            check_interaction_without_disturbance(classical.xor_feedback()).verdict
            == "interaction-without-disturbance witness"
        )
        bits = composite(("A", 2), ("B", 2))
        assert (
            check_interaction_without_disturbance(ClassicalChannel.identity(bits)).verdict
            == "no-interaction"
        )
        assert check_interaction_without_disturbance(classical.cnot()).verdict == "disturbing"
        # exhaustive over two-bit channels, then random mixed-dimension channels
        witnesses = 0
        for u in all_reversible_channels(bits):
            res = check_interaction_without_disturbance(u)
            if res.premise_holds and not res.factorizes:
                witnesses += 1
                assert res.forced_influence is True
        assert witnesses > 0
        rng = np.random.default_rng(88)
        for _ in range(100):
            da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            u = classical.random_reversible(composite(("A", da), ("B", db)), rng)
            res = check_interaction_without_disturbance(u)
            if res.premise_holds and not res.factorizes:
                assert res.forced_influence is True


def test_criterion_8_cellular_automaton_cone_gap():
    with criterion(8, "staggered ring: classical cone gap closed by quantization", 120.0):
        layers_c = [
            [(classical.cnot(), i) for i in range(0, 6, 2)],
            [(classical.cnot(), i) for i in range(1, 6, 2)],
        ]
        ring_c = build_ring(layers_c, cells=6, cell_dim=2)
        rows = cone_growth(ring_c, max_steps=2)
        final = rows[-1]
        assert any(
            c > s for c, s in zip(final.causal_sizes, final.signalling_sizes)
        ), "expected a strict classical cone gap"
        layers_q = [
            [(quantum.cnot(), i) for i in range(0, 6, 2)],
            [(quantum.cnot(), i) for i in range(1, 6, 2)],
        ]
        ring_q = build_ring(layers_q, cells=6, cell_dim=2, model="quantum")
        classical_map = {e.cell: e for e in neighbourhood_map(ring_c, steps=2)}
        for e in neighbourhood_map(ring_q, steps=2, tol=TOL):
            assert e.signalling == classical_map[e.cell].causal
