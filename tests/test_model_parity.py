"""The two models' kernels agree where the theory says they must.

A reversible classical channel and its lift ``from_classical(u)`` are the same
evolution, so the definitions of ``causal``, run through each model's protocol
steps, must agree: influence is the same relation, the lift's signalling is its
influence, a classical signalling pair is an influence pair, a memory form
exists exactly where nothing signals, every witness replays, and the
classification of interaction without disturbance lifts.
"""

import itertools
from collections import Counter

from causal_lens import quantum
from causal_lens.causal import (
    check_interaction_without_disturbance,
    find_witness,
    hierarchy_report,
    memory_decomposition,
    replay_witness,
)
from causal_lens.classical import ClassicalChannel
from causal_lens.systems import composite


def channels(dims, every):
    """Every ``every``-th permutation channel on wires A, B of ``dims``, in table order."""
    system = composite(*zip("AB", dims))
    tables = itertools.permutations(range(system.total_dim))
    return [ClassicalChannel(system, system, t) for t in itertools.islice(tables, 0, None, every)]


def blocks(names):
    return [c for r in range(len(names) + 1) for c in itertools.combinations(names, r)]


def test_the_lift_agrees_with_the_classical_channel():
    # all 24 permutations on (2, 2) and every 12th of the 720 on (2, 3): 1344
    # (from, to) pairs, empty and full blocks included, and 252 classifications
    pairs, kinds = 0, Counter()
    for u in channels((2, 2), 1) + channels((2, 3), 12):
        q = quantum.from_classical(u)
        for frm, to in itertools.product(blocks(u.input.names), blocks(u.output.names)):
            c_rep, q_rep = hierarchy_report(u, frm, to), hierarchy_report(q, frm, to)
            assert c_rep.causal_influence == q_rep.causal_influence, (u.table, frm, to)
            assert q_rep.signalling == q_rep.causal_influence
            assert not c_rep.signalling or c_rep.causal_influence
            for model, rep in ((u, c_rep), (q, q_rep)):
                assert (memory_decomposition(model, frm, to) is None) == rep.signalling
                if rep.causal_influence:
                    assert replay_witness(model, find_witness(model, frm, to))
            pairs += 1
        for act in blocks(u.input.names)[1:]:
            c_verdict = check_interaction_without_disturbance(u, act).verdict
            q_verdict = check_interaction_without_disturbance(q, act).verdict
            assert q_verdict != "interaction-without-disturbance witness"
            assert c_verdict != "no-interaction" or q_verdict == "no-interaction"
            kinds[c_verdict, q_verdict] += 1
    assert pairs == 1344
    assert kinds == {
        ("no-interaction", "no-interaction"): 90,
        ("disturbing", "disturbing"): 152,
        ("interaction-without-disturbance witness", "disturbing"): 10,
    }
