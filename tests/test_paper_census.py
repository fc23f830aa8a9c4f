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
B → B' or A → C', yet B influences B' and A influences C'.
"""

from pathlib import Path

import numpy as np
import pytest

from causal_lens.causal import influence_relation
from causal_lens.cli import load_channel_file
from causal_lens.classical import all_reversible_channels
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
