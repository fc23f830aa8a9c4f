"""Wiring the tests build inputs with, on the library's public API.

``reorder_wires`` lists a channel's wires in another order, and ``embed_on``
places a channel on a larger system, identity on the wires it does not name.
Both work in the channel's own model: a relabelling is the classical channel
read off ``CompositeSystem.digits``, lifted by ``quantum.from_classical`` for
a unitary. Neither checks its input.
"""

import numpy as np

from causal_lens import quantum
from causal_lens.classical import ClassicalChannel


def _relabelling(like, system, order):
    """The channel from ``system`` to ``system.select(order)``, in ``like``'s model."""
    table = system.digits(np.arange(system.total_dim), order)
    r = ClassicalChannel(system, system.select(order), table)
    return r if isinstance(like, ClassicalChannel) else quantum.from_classical(r)


def reorder_wires(channel, input_order=None, output_order=None):
    """The same channel with its wires listed in a different order."""
    out = channel
    if input_order is not None:
        out = out.compose(_relabelling(channel, channel.input, input_order).invert())
    if output_order is not None:
        out = _relabelling(channel, channel.output, output_order).compose(out)
    return out


def embed_on(channel, system):
    """``channel`` on its own wires of ``system``, identity on the rest."""
    names = list(channel.input.names)
    rest = [n for n in system.names if n not in names]
    r = _relabelling(channel, system, names + rest)
    big = channel.tensor(type(channel).identity(system.restrict(rest)))
    return r.invert().compose(big).compose(r)
