"""Causal influence, signalling, and neighbourhood analysis for reversible channels.

The central construction probes a reversible channel ``u`` at an input subset
``A``: introduce a fresh copy of ``A``, undo the evolution, swap the copy with
the real input, and evolve again. The resulting probe process acts on the copy
together with all outputs, and the largest output subset on which it factors
as an identity is exactly the set of outputs that ``A`` cannot influence. Its
complement is the causal neighbourhood of ``A``.

This module states each definition once for both models: the probe process,
the influence and signalling relations (signalling must lie inside
influence), the hierarchy, memory decomposition, interaction without
disturbance and witnesses. It has no wiring combinators; channels are wired
with ``compose`` and ``tensor``. Every kernel lives in its model's module,
reached only through the protocol ``ClassicalChannel`` and ``UnitaryChannel``
share: ``signals``, ``wire_signalling``, ``factors_as_identity``, ``compose``,
``tensor``, ``invert`` and the package-internal steps ``_probes`` (a stack of
probe processes in closed form), ``_probe`` (the bare probe at one block,
as a stack of one and as a certified channel), ``_probe_pass`` (the
per-wire idle sweep, then the joint factorization), ``_influence_relation``,
``_wire_relations``, ``_hierarchy`` (signalling and the witness, the memory
legs verified where nothing signals), ``_memory`` (the legs as data),
``_discard_leaves_rest_alone``, ``_inverse_nosignalling``, ``_witness``,
``_replay`` and ``_conjugation_matches``; a model refuses another model's
witness or instrument. Only a question that reads an idle set runs the
probe pass. Wire names are read through ``CompositeSystem.subset_positions``.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Optional, Union

import numpy as np

from .classical import ClassicalChannel, ClassicalInstrument
from .errors import ConsistencyError, SpecError
from .quantum import DEFAULT_TOL, UnitaryChannel
from .systems import CompositeSystem

__all__ = [
    "DisturbanceClassification",
    "HierarchyReport",
    "MemoryDecomposition",
    "TProcessResult",
    "Witness",
    "check_interaction_without_disturbance",
    "find_witness",
    "has_causal_influence",
    "hierarchy_report",
    "influence_relation",
    "inverse_nosignalling_check",
    "memory_decomposition",
    "neighbourhood",
    "probe_conjugation_matches_evolution",
    "replay_witness",
    "t_process",
    "wire_relations",
]

Channel = Union[ClassicalChannel, UnitaryChannel]


# -- wire names ------------------------------------------------------------------


def _ordered_subset(system: CompositeSystem, names: Iterable[str]) -> tuple[str, ...]:
    """Validate ``names`` against ``system`` and return them in system order.

    Unknown and duplicate names raise ``SpecError``.
    """
    return tuple(system.names[k] for k in system.subset_positions(names))


# -- the probe process ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TProcessResult:
    """Probe process of a channel relative to an input subset.

    ``channel`` acts on the probe copies followed by all original outputs; its
    input and output systems coincide. ``idle_subset`` is the set of output
    wires on which it acts as an identity (quantumly, each with ``δ <= tol``).
    """

    channel: Channel
    probed: tuple[str, ...]
    probe_copies: tuple[str, ...]
    outputs: tuple[str, ...]
    idle_subset: frozenset[str]

    @property
    def influenced(self) -> tuple[str, ...]:
        """Output wires not in the idle subset, in output order."""
        return tuple(n for n in self.outputs if n not in self.idle_subset)


def t_process(u: Channel, probed: Iterable[str], tol: float = DEFAULT_TOL) -> TProcessResult:
    """Conjugate the copy-swap at ``probed`` by the evolution and find its idle outputs.

    The probe channel is (copy-padded u) after (swap copies with probed inputs)
    after (copy-padded u inverse), read off ``u`` in closed form: classically
    the table ``(c, z) -> (x_A, u(x with A := c))`` for ``x = u^-1(z)``,
    quantumly one matrix product on ``U``. The model's bare probe (``_probe``)
    is a stack of one and a channel, whose constructor certifies it; the
    stack runs the model's probe pass. The factor on the idle set is
    ``channel.factors_as_identity(idle_subset)``.
    """
    frm = _ordered_subset(u.input, probed)
    probes, tilde = u._probe(frm)
    mask = u._probe_pass(probes, tol)
    return TProcessResult(
        channel=tilde,
        probed=frm,
        probe_copies=tilde.input.names[: len(frm)],
        outputs=u.output.names,
        idle_subset=frozenset(n for n, hit in zip(u.output.names, mask[0]) if hit),
    )


def influence_relation(u: Channel, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The single-wire influence relation: ``r[i, t]`` iff input ``i`` influences output ``t``.

    Entry ``[i, t]`` is ``t in neighbourhood(u, [input i], tol)``, decided with
    every check of ``t_process`` and no channel built: each stack of probes,
    certified at once, runs the model's probe pass (quantumly the probe side
    of the one Gram loop, ``quantum._gram_deltas``).
    """
    return u._influence_relation(tol)


def wire_relations(u: Channel, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """The single-wire influence and signalling relations, ``[input, output]`` each.

    Signalling implies influence, so a signalling pair outside the influence
    relation is a consistency violation. Quantumly both come off one Gram loop.
    """
    influence, signalling = u._wire_relations(tol)
    escaped = np.flatnonzero((signalling & ~influence).any(axis=1))
    if escaped.size:
        name = u.input.names[escaped[0]]
        raise ConsistencyError(f"signalling set of {name} escapes its causal neighbourhood")
    return influence, signalling


def neighbourhood(u: Channel, probed: Iterable[str], tol: float = DEFAULT_TOL) -> frozenset[str]:
    """Output wires causally influenced by the ``probed`` inputs.

    Satisfies the union law: the neighbourhood of a composite probe is the
    union of the single-wire neighbourhoods.
    """
    tp = t_process(u, probed, tol)
    return frozenset(tp.influenced)


def has_causal_influence(
    u: Channel, from_in: Iterable[str], to_out: Iterable[str], tol: float = DEFAULT_TOL
) -> bool:
    """True iff some wire of ``to_out`` lies in the causal neighbourhood of ``from_in``.

    Quantumly a block is decided by its wires' ``δ``, never by the block's
    own ``δ``, which may exceed every wire's inside the tolerance band.
    """
    to = _ordered_subset(u.output, to_out)
    return not t_process(u, from_in, tol).idle_subset.issuperset(to)


# -- memory decomposition ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MemoryDecomposition:
    """Factorization of ``u`` through a memory wire: first ``v``, then ``w``.

    ``v`` maps the non-probed input block B to (env, idle output block B');
    ``w`` maps (probed block A, env) to (``discarded``, remaining outputs
    A'), and ``discarded`` is traced out. Classically the legs are
    instruments and ``discarded`` is empty. Quantumly they are read-only
    matrices, ``v`` the isometry ``V = U(|0>_A x .)`` and ``w`` the probe's
    certified factor ``W``, which keeps the probe copies of A as ``discarded``.
    Recomposing the legs reproduces ``u`` exactly (classical) or, quantumly,
    as ``(W x 1_B')(1_A x V) = |0>_C x U`` within tolerance; this is
    verified at construction.
    """

    env: CompositeSystem
    v: Union[ClassicalInstrument, np.ndarray]
    w: Union[ClassicalInstrument, np.ndarray]
    discarded: CompositeSystem


def memory_decomposition(
    u: Channel, from_in: Iterable[str], idle_out: Iterable[str], tol: float = DEFAULT_TOL
) -> Optional[MemoryDecomposition]:
    """Memory-channel form of ``u`` for the bipartition (from_in | rest).

    Exists iff ``from_in`` cannot signal to ``idle_out``; returns None when
    signalling holds. No probe pass runs: the idle set is given, and only
    the quantum legs build the bare probe, whose factor on it is ``W``.
    """
    frm = _ordered_subset(u.input, from_in)
    idle = _ordered_subset(u.output, idle_out)
    if u.signals(frm, idle, tol):
        return None
    return MemoryDecomposition(*u._memory(frm, idle))


# -- hierarchy ---------------------------------------------------------------------


def _fields_dict(report) -> dict:
    """The fields of a report dataclass in declaration order, read without a copy."""
    return {f.name: getattr(report, f.name) for f in fields(report)}


@dataclass(frozen=True, eq=False)
class Witness:
    """Replayable evidence of causal influence.

    ``kind`` is "intervention" (classical: an intervention and the inputs where
    conjugating it by the evolution breaks the target-local form) or
    "factorization-defect" (quantum: the worst entry of the signalling
    identity).
    """

    kind: str
    detail: dict


@dataclass(frozen=True, eq=False)
class HierarchyReport:
    """The three causal conditions for one (input block, output block) pair.

    ``consistent`` records the implication chain: no causal influence implies
    memory-decomposable implies no signalling.
    """

    from_in: tuple[str, ...]
    to_out: tuple[str, ...]
    causal_influence: bool
    memory_decomposable: bool
    signalling: bool
    consistent: bool
    witness: Optional[Witness] = None

    def to_dict(self) -> dict:
        out = _fields_dict(self)
        out["from"], out["to"] = out.pop("from_in"), out.pop("to_out")
        if self.witness is not None:
            out["witness"] = {"kind": self.witness.kind, "detail": self.witness.detail}
        return out


def hierarchy_report(
    u: Channel, from_in: Iterable[str], to_out: Iterable[str], tol: float = DEFAULT_TOL
) -> HierarchyReport:
    """Compute causal influence, memory-decomposability, and signalling.

    One probe process serves all three and the witness. Quantumly they are
    one decision, on the ``δ`` of each wire of ``to`` (``has_causal_influence``);
    the block's ``δ``, read off the probe and off the signalling terms, is
    compared as a value.
    """
    frm = _ordered_subset(u.input, from_in)
    to = _ordered_subset(u.output, to_out)
    tp = t_process(u, frm, tol)
    causal = not tp.idle_subset.issuperset(to)
    # a memory form exists iff there is no signalling; building it verifies it
    sig, witness = u._hierarchy(tp.channel, frm, to, causal, tol)
    return HierarchyReport(
        from_in=frm,
        to_out=to,
        causal_influence=causal,
        memory_decomposable=not sig,
        signalling=sig,
        consistent=causal or not sig,
        witness=None if witness is None else Witness(*witness),
    )


# -- no interaction without disturbance ---------------------------------------------


@dataclass(frozen=True, eq=False)
class DisturbanceClassification:
    """Outcome of the invisible-action test for a channel on a fixed bipartition.

    ``premise_holds``: discarding the acting block's output leaves the
    bystander block untouched. ``factorizes``: the channel is a local action
    tensor the bystander identity. A channel satisfying the premise without
    factorizing is an interaction-without-disturbance witness and is forced to
    causally influence the bystander; ``forced_influence`` records the
    cross-check of that forced relation.
    """

    acting: tuple[str, ...]
    bystander: tuple[str, ...]
    premise_holds: bool
    factorizes: bool
    verdict: str
    forced_influence: Optional[bool] = None

    def to_dict(self) -> dict:
        return _fields_dict(self)


def check_interaction_without_disturbance(
    u: Channel, acting: Optional[Iterable[str]] = None, tol: float = DEFAULT_TOL
) -> DisturbanceClassification:
    """Classify a channel with matching input/output systems.

    ``acting`` names the block whose action should be invisible on the rest;
    it defaults to the first wire.
    """
    if set(u.input.names) != set(u.output.names):
        raise SpecError("classification needs matching input and output wire names")
    for name, dim in zip(u.input.names, u.input.dims):
        if u.output.dims[u.output.position(name)] != dim:
            raise SpecError(f"wire {name!r} changes dimension between input and output")
    act = _ordered_subset(u.input, u.input.names[:1] if acting is None else acting)
    if not act:
        raise SpecError("the acting block needs at least one wire")
    bystander = u.input.complement(act)
    premise = u._discard_leaves_rest_alone(act, bystander, tol)
    factor = u.factors_as_identity(bystander, tol) if premise else None
    if premise and factor is not None:
        verdict = "no-interaction"
        forced = None
    elif premise:
        verdict = "interaction-without-disturbance witness"
        forced = has_causal_influence(u, act, bystander, tol)
    else:
        verdict = "disturbing"
        forced = None
    return DisturbanceClassification(
        acting=act,
        bystander=bystander,
        premise_holds=premise,
        factorizes=factor is not None,
        verdict=verdict,
        forced_influence=forced,
    )


def inverse_nosignalling_check(
    u: Channel, from_in: Iterable[str], to_out: Iterable[str], tol: float = DEFAULT_TOL
) -> bool:
    """Verify the inverse-evolution identity implied by no-signalling.

    With no signalling from ``from_in`` to ``to_out``, the effective channel C
    (feed a fixed state into the from block, evolve, discard the non-target
    outputs) must satisfy: undo the evolution, discard the from block, apply C
    — and get exactly (discard the rest) tensor (identity on the target).
    A property check, not a decision procedure.
    """
    frm = _ordered_subset(u.input, from_in)
    to = _ordered_subset(u.output, to_out)
    if u.signals(frm, to, tol):
        raise SpecError("precondition failed: the channel signals from_in -> to_out")
    return u._inverse_nosignalling(frm, to, tol)


# -- witnesses ----------------------------------------------------------------------


def find_witness(
    u: Channel, from_in: Iterable[str], to_out: Iterable[str], tol: float = DEFAULT_TOL
) -> Witness:
    """Produce replayable evidence that ``from_in`` causally influences ``to_out``.

    Classically the witness is the first constant preparation ``A := j`` (no
    environment), ``j`` in order, whose conjugate by the evolution breaks the
    target-local form. One always exists. Suppose every conjugate of
    ``A := j`` keeps the target output digit and maps the other output
    digits through some ``f_j``. At ``j = x_A`` the conjugate is the identity
    at ``u(x)``, so ``f_(x_A)`` fixes the rest digits of ``u(x)``. If two
    outputs with equal rest digits had preimages ``x, x'`` differing on
    ``A``, then ``u(x'[A := x_A])`` would share the target digit of ``u(x')``
    and, through ``f_(x_A)``, its rest digits too: ``u(x'[A := x_A]) =
    u(x')``, against injectivity. So the preimage's ``A`` digit is a function
    of the rest outputs, and the copy-swap conjugate, which is the probe
    process, is target-local as well: no influence.
    """
    frm = _ordered_subset(u.input, from_in)
    to = _ordered_subset(u.output, to_out)
    if not has_causal_influence(u, frm, to, tol):
        raise SpecError("find_witness requires causal influence from_in -> to_out")
    return Witness(*u._witness(frm, to))


def replay_witness(u: Channel, witness: Witness, tol: float = DEFAULT_TOL) -> bool:
    """Re-derive the recorded violation from scratch; True iff it still holds."""
    return u._replay(witness.kind, witness.detail, tol)


# -- probe-process identities ---------------------------------------------------------


def probe_conjugation_matches_evolution(
    u: ClassicalChannel, probed: Iterable[str], instrument: ClassicalInstrument
) -> bool:
    """Exact identity: sandwiching an intervention between two probe processes
    equals conjugating it by the evolution, with the probe copy passing through.

    The instrument acts on (environment wires, probe block); its trailing wire
    dimensions must match the probed block. The identity reads the bare
    probe, which the classical step builds; the quantum step refuses first.
    """
    return u._conjugation_matches(_ordered_subset(u.input, probed), instrument)
