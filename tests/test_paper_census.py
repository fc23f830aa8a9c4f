"""The classical influence relation against signalling, over every channel of three shapes.

Every reversible classical channel on two wires of dims (2, 2), (2, 3) and
(3, 2) is read: 24, 720 and 720 channels. This is an exhaustive check on
these shapes, not a proof; the counts are exact.

* Influence is dual under inversion: ``influence_relation(u) ==
  influence_relation(u.invert()).T`` on every channel.
* Signalling is not: ``wire_signalling(u) == wire_signalling(u.invert()).T``
  holds on 8 of 24, 624 of 720 and 624 of 720.
* On two wires, influence is signalling by the evolution or by its inverse:
  ``influence == wire_signalling(u) | wire_signalling(u.invert()).T`` on
  every channel. So signalling implies influence here, as the paper proves
  in general.

It takes a third wire to hide influence from both directions: on the fixture
``hidden_influence.json`` neither the evolution nor its inverse signals
B → B' or A → C', yet B influences B' and A influences C'. On a sample of
three-wire channels, every 97th of the 40320 on (2, 2, 2) (416 channels):

* influence is still dual under inversion on all 416;
* signalling is dual on 221;
* ``sig₂ = wire_signalling(u) | wire_signalling(u.invert()).T`` lies inside
  influence on all 416 and equals it on 397, so it is strictly smaller on 19.

No interaction without disturbance (NIWD), over every channel on (2, 2) and
(2, 3) with each single wire acting: classically there are 40 disturbing, 4
witness and 4 no-interaction verdicts on (2, 2), and 1396, 36 and 8 on
(2, 3); every witness is forced to influence the bystander. The
``from_classical`` lift gives no witness: each classical witness is
"disturbing" quantumly and every other verdict agrees. Classical theory
violates NIWD and quantum theory satisfies it, as the paper says. These too
are exhaustive checks on the stated shapes and sample, not proofs.
"""

import itertools
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from causal_lens.causal import check_interaction_without_disturbance, influence_relation
from causal_lens.cli import load_channel_file
from causal_lens.classical import all_reversible_channels
from causal_lens.quantum import from_classical
from causal_lens.systems import composite

# dims -> (channels, influence dual, signalling dual, influence is two-way signalling)
CENSUS = {
    (2, 2): (24, 24, 8, 24),
    (2, 3): (720, 720, 624, 720),
    (3, 2): (720, 720, 624, 720),
}


@pytest.mark.parametrize("dims", sorted(CENSUS))
def test_the_census_of_every_two_wire_channel(dims):
    counts = np.zeros(4, dtype=int)
    for u in all_reversible_channels(composite(*zip("AB", dims))):
        inv = u.invert()
        influence, signalling = influence_relation(u), u.wire_signalling()
        back = inv.wire_signalling().T
        counts += [
            1,
            np.array_equal(influence, influence_relation(inv).T),
            np.array_equal(signalling, back),
            np.array_equal(influence, signalling | back),
        ]
    assert tuple(counts.tolist()) == CENSUS[dims]


def test_influence_that_neither_direction_signals():
    fixture = Path(__file__).resolve().parent.parent / "fixtures" / "hidden_influence.json"
    u = load_channel_file(str(fixture))
    influence, signalling = influence_relation(u), u.wire_signalling()
    back = u.invert().wire_signalling().T
    hidden = influence & ~(signalling | back)
    # rows A, B, C; columns A', B', C': exactly A -> C' and B -> B'
    assert influence.all()
    assert np.argwhere(hidden).tolist() == [[0, 2], [1, 1]]


def test_the_three_wire_sample():
    system = composite(*zip("ABC", (2, 2, 2)))
    counts = np.zeros(5, dtype=int)
    for u in itertools.islice(all_reversible_channels(system), 0, None, 97):
        inv = u.invert()
        influence, signalling = influence_relation(u), u.wire_signalling()
        back = inv.wire_signalling().T
        sig2 = signalling | back
        counts += [
            1,
            np.array_equal(influence, influence_relation(inv).T),
            np.array_equal(signalling, back),
            not (sig2 & ~influence).any(),
            np.array_equal(influence, sig2),
        ]
    assert counts.tolist() == [416, 416, 221, 416, 397]


# dims -> classical verdict counts over every channel and single acting wire
NIWD = {
    (2, 2): {"disturbing": 40, "interaction-without-disturbance witness": 4, "no-interaction": 4},
    (2, 3): {"disturbing": 1396, "interaction-without-disturbance witness": 36, "no-interaction": 8},
}


@pytest.mark.parametrize("dims", sorted(NIWD))
def test_the_niwd_census(dims):
    witness = "interaction-without-disturbance witness"
    kinds = Counter()
    for u in all_reversible_channels(composite(*zip("AB", dims))):
        q = from_classical(u)
        for act in u.input.names:
            c = check_interaction_without_disturbance(u, [act])
            q_verdict = check_interaction_without_disturbance(q, [act]).verdict
            kinds[c.verdict] += 1
            if c.verdict == witness:
                assert c.forced_influence is True
                assert q_verdict == "disturbing"
            else:
                assert q_verdict == c.verdict
    assert kinds == NIWD[dims]
