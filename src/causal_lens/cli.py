"""Command-line surface: parse channel/rule files, run analyses, emit reports.

Exit codes: 0 success, 1 parse or usage error, 2 internal consistency
violation (a bug, never expected), 3 budget exceeded.

File formats (JSON throughout):

* channel file: ``{"model": "classical"|"quantum", "inputs": [{"name", "dim"}...],
  "outputs": [...], "data": ...}`` where ``data`` is a permutation array of
  joint indices (classical) or a row-major matrix of ``[re, im]`` pairs
  (quantum).
* automaton rule file: ``{"cell_dim": d, "layers": [[{"gate": builtin-or-path,
  "at": index}, ...], ...]}`` with builtins cnot, swap, identity, hadamard.

``CAUSAL_LENS_MAX_DIM`` caps the joint dimension (default 4096 classical,
64 quantum).
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import classical as cl
from . import quantum as qm
from .automata import DEFAULT_MAX_DIM, ConeRow, build_ring, neighbourhood_maps
from .causal import check_interaction_without_disturbance, hierarchy_report, wire_relations
from .classical import ClassicalChannel
from .errors import BudgetError, ConsistencyError, SpecError
from .oracle import OracleBudget, cross_validate
from .quantum import DEFAULT_TOL, UnitaryChannel
from .systems import composite

MAX_DIM_ENV = "CAUSAL_LENS_MAX_DIM"


def _max_dim(model: str) -> int:
    raw = os.environ.get(MAX_DIM_ENV)
    if raw is None:
        return DEFAULT_MAX_DIM[model]
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:  # a cap of 0 or less is a malformed setting, not a budget every input exceeds
        raise SpecError(f"{MAX_DIM_ENV} must be a positive integer, got {raw!r}")
    return cap


# -- file loading -----------------------------------------------------------------


def _load_json(path: str) -> dict:
    """The JSON object in the UTF-8 file at ``path``; any failure to read one is a SpecError."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise SpecError(f"{path}: file not found") from None
    except OSError as exc:
        raise SpecError(f"{path}: cannot read: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise SpecError(f"{path}: not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from None
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise SpecError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise SpecError(f"{path}: invalid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise SpecError(f"{path}: the top level must be a JSON object")
    return data


def _integer(path: str, what: str, value) -> int:
    """``int(value)``, or a SpecError naming ``what`` in the file at ``path``.

    Only a JSON integer or an integral number is accepted: a fractional
    number, a boolean or a string (even of digits) is an error, not converted.
    """
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(value)
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(value)
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise SpecError(f"{path}: {what} must be an integer, got {value!r}") from None


def _complex(path: str, re, im) -> complex:
    """A quantum matrix entry ``[re, im]``: each part must be a JSON number, not a boolean."""
    if type(re) in (int, float) and type(im) in (int, float):  # plain numbers as they are
        return complex(re, im)
    bad = im if type(re) in (int, float) else re
    raise SpecError(f"{path}: matrix entry parts must be numbers, got {bad!r}")


def _system_from(path: str, key: str, entries) -> "composite":
    try:
        wires = [(e["name"], e["dim"]) for e in entries]
    except (TypeError, KeyError):
        raise SpecError(f"{path}: {key} must be a list of {{name, dim}} objects") from None
    return composite(*((name, _integer(path, f"{key} dim", dim)) for name, dim in wires))


def _check_tol(model: str, tol: float) -> None:
    """A quantum verdict cannot be finer than the unitarity certificate, ``DEFAULT_TOL``."""
    if model == "quantum" and tol < DEFAULT_TOL:
        raise SpecError(f"--tol {tol} is below the quantum floor {DEFAULT_TOL}")


def load_channel_file(
    path: str, model_override: Optional[str] = None, tol: float = DEFAULT_TOL
):
    """Parse and certify a channel file, optionally coercing it to the other model.

    The unitarity certificate and the permutation read run at ``DEFAULT_TOL``
    whatever ``tol`` is; ``tol`` is only checked against the quantum floor.
    """
    data = _load_json(path)
    for key in ("model", "inputs", "outputs", "data"):
        if key not in data:
            raise SpecError(f"{path}: missing key {key!r}")
    declared = data["model"]
    if declared not in ("classical", "quantum"):
        raise SpecError(f"{path}: model must be 'classical' or 'quantum'")
    model = model_override or declared
    _check_tol(model, tol)
    inputs = _system_from(path, "inputs", data["inputs"])
    outputs = _system_from(path, "outputs", data["outputs"])
    # the file is parsed in its declared model, so both caps bound it
    for cap_model in (model, declared):
        if inputs.total_dim > _max_dim(cap_model):
            raise BudgetError(
                f"{path}: joint dimension {inputs.total_dim} exceeds the {cap_model} cap"
            )
    try:
        if declared == "classical":
            # a JSON integer as is; every other value through the one rule
            table = tuple(
                v if type(v) is int else _integer(path, "data entry", v) for v in data["data"]
            )
            chan = ClassicalChannel(inputs, outputs, table)
            return qm.from_classical(chan) if model == "quantum" else chan
        matrix = np.array(
            [[_complex(path, re, im) for re, im in row] for row in data["data"]], dtype=complex
        )
        chan = UnitaryChannel(inputs, outputs, matrix)
        if model == "classical":
            table = _permutation_from_matrix(chan.matrix)
            if table is None:
                raise SpecError(
                    f"{path}: matrix is not a permutation; cannot force --model classical"
                )
            return ClassicalChannel(inputs, outputs, table)
        return chan
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError(f"{path}: malformed data: {exc}") from None


def _permutation_from_matrix(matrix: np.ndarray):
    n = matrix.shape[0]
    table = []
    for x in range(n):
        col = matrix[:, x]
        hits = np.nonzero(np.abs(col) > DEFAULT_TOL)[0]
        if len(hits) != 1 or abs(col[hits[0]] - 1.0) > DEFAULT_TOL:
            return None
        table.append(int(hits[0]))
    return tuple(table)


_BUILTINS = ("cnot", "hadamard", "identity", "swap")


@functools.cache  # gates are immutable: every entry naming a builtin shares one
def _builtin_gate(name: str, model: str, cell_dim: int):
    """The builtin gate ``name``, one of ``_BUILTINS``."""
    if name == "hadamard":
        if model != "quantum":
            raise SpecError("the hadamard builtin needs --model quantum")
        if cell_dim != 2:
            raise SpecError("the hadamard builtin needs cell_dim 2")
        return qm.hadamard()
    # a gate spans at most its ring, so one over the cap is rejected before its table is built
    width, cap = (1 if name == "identity" else 2), _max_dim(model)
    if cell_dim**width > cap:
        raise BudgetError(f"{name} gate dimension {cell_dim}**{width} exceeds the cap of {cap}")
    if name == "cnot":
        gate = cl.cnot(dim=cell_dim)
    elif name == "swap":
        gate = cl.swap_gate(dim=cell_dim)
    else:
        gate = ClassicalChannel.identity(composite(("A", cell_dim)))
    return gate if model == "classical" else qm.from_classical(gate)


def load_rule_file(path: str, model: str, tol: float = DEFAULT_TOL):
    """Parse an automaton rule file into (cell_dim, layers)."""
    _check_tol(model, tol)
    data = _load_json(path)
    for key in ("cell_dim", "layers"):
        if key not in data:
            raise SpecError(f"{path}: missing key {key!r}")
    cell_dim = _integer(path, "cell_dim", data["cell_dim"])
    rows = data["layers"]
    if not isinstance(rows, list) or not all(isinstance(layer, list) for layer in rows):
        raise SpecError(f"{path}: layers must be a list of lists of gate entries")
    layers = []
    for layer in rows:
        built = []
        for entry in layer:
            try:
                gate_ref, at = entry["gate"], entry["at"]
            except (TypeError, KeyError):
                raise SpecError(f"{path}: each gate entry needs 'gate' and 'at'") from None
            at = _integer(path, "at", at)
            if not isinstance(gate_ref, str):
                raise SpecError(f"{path}: gate must be a builtin name or a file path")
            if gate_ref in _BUILTINS:
                gate = _builtin_gate(gate_ref, model, cell_dim)
            else:
                gate_path = str(Path(path).parent / gate_ref) if not os.path.isabs(gate_ref) else gate_ref
                if not os.path.isfile(gate_path):
                    raise SpecError(
                        f"{path}: gate {gate_ref!r} is neither a builtin {list(_BUILTINS)} nor a file"
                    )
                gate = load_channel_file(gate_path, model_override=model, tol=tol)
            built.append((gate, at))
        layers.append(built)
    return cell_dim, layers


# -- rendering ---------------------------------------------------------------------


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _render_matrix(title: str, rows, cols, cells) -> list[str]:
    if not rows or not cols:
        return [title, "  (no wires)"]
    width = max([len(c) for c in cols] + [3]) + 2
    head = " " * max(len(r) for r in rows) + "  " + "".join(c.ljust(width) for c in cols)
    lines = [title, head]
    for r in rows:
        line = r.ljust(max(len(x) for x in rows)) + "  "
        line += "".join(_yn(cells[r][c]).ljust(width) for c in cols)
        lines.append(line)
    return lines


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        if getattr(args, "timestamps", False):
            print(f"generated at {datetime.datetime.now().isoformat()}")
        print("\n".join(text_lines))


# -- commands ----------------------------------------------------------------------


def cmd_analyze(args) -> int:
    """Causal and signalling matrices of every (input, output) wire pair.

    Both matrices come from ``wire_relations``: one pass over the channel
    each, with signalling outside the causal neighbourhood a consistency
    violation.
    """
    u = load_channel_file(args.file, args.model, args.tol)
    ins, outs = list(u.input.names), list(u.output.names)
    influence, sig_rows = (r.tolist() for r in wire_relations(u, args.tol))
    causal = {i: dict(zip(outs, row)) for i, row in zip(ins, influence)}
    hoods = {i: [o for o, hit in zip(outs, row) if hit] for i, row in zip(ins, influence)}
    signalling = {i: dict(zip(outs, row)) for i, row in zip(ins, sig_rows)}
    payload = {
        "file": args.file,
        "model": "classical" if isinstance(u, ClassicalChannel) else "quantum",
        "inputs": ins,
        "outputs": outs,
        "causal": causal,
        "signalling": signalling,
        "neighbourhoods": hoods,
        "consistent": True,
    }
    lines = [f"model: {payload['model']}   wires: {','.join(ins)} -> {','.join(outs)}"]
    lines += _render_matrix("causal influence", ins, outs, causal)
    lines += _render_matrix("signalling", ins, outs, signalling)
    lines.append("neighbourhoods")
    for i in ins:
        lines.append(f"  {i} -> {','.join(hoods[i]) if hoods[i] else '(none)'}")
    lines.append("consistent: yes")
    _emit(args, payload, lines)
    return 0


def _names_list(raw: str) -> list[str]:
    names = [part.strip() for part in raw.split(",") if part.strip()]
    if not names:
        raise SpecError("expected a comma-separated list of wire names")
    return names


def cmd_hierarchy(args) -> int:
    u = load_channel_file(args.file, args.model, args.tol)
    rep = hierarchy_report(u, _names_list(args.from_in), _names_list(args.to_out), args.tol)
    payload = {"file": args.file, **rep.to_dict()}
    lines = [
        f"from {','.join(rep.from_in)} to {','.join(rep.to_out)}:",
        f"  causal influence:    {_yn(rep.causal_influence)}",
        f"  memory decomposable: {_yn(rep.memory_decomposable)}",
        f"  signalling:          {_yn(rep.signalling)}",
        f"  consistent:          {_yn(rep.consistent)}",
    ]
    if rep.witness is not None:
        lines.append(f"  witness: {rep.witness.kind} ({json.dumps(rep.witness.detail, sort_keys=True)})")
    _emit(args, payload, lines)
    if not rep.consistent:
        raise ConsistencyError("hierarchy implication chain violated")
    return 0


def cmd_oracle(args) -> int:
    u = load_channel_file(args.file, args.model, args.tol)
    budget = OracleBudget(max_env_dim=args.env_dim, intervention_class=args.intervention_class)
    report = cross_validate(u, budget)
    payload = {
        "file": args.file,
        "budget": {"env_dim": args.env_dim, "class": args.intervention_class},
        **report.to_dict(),
    }
    lines = [f"oracle cross-validation (env dim {args.env_dim}, class {args.intervention_class})"]
    for p in report.pairs:
        lines.append(
            f"  {p.from_wire} -> {p.to_wire}: oracle {_yn(p.oracle_influence)}, "
            f"probe {_yn(p.tprocess_influence)} [{p.status}]"
        )
    lines.append(f"sound: {_yn(report.sound)}   full agreement: {_yn(report.full_agreement)}")
    _emit(args, payload, lines)
    if not report.sound:
        raise ConsistencyError("oracle found influence the probe process missed")
    if not report.full_agreement:
        raise ConsistencyError("probe process found influence no constant preparation witnessed")
    return 0


def cmd_ca(args) -> int:
    cell_dim, layers = load_rule_file(args.rulefile, args.model, args.tol)
    auto = build_ring(
        layers, args.cells, cell_dim, model=args.model, max_dim=_max_dim(args.model)
    )
    maps = neighbourhood_maps(auto, args.steps, args.tol)
    entries = maps[-1]
    cones = [ConeRow.from_map(t, nm) for t, nm in enumerate(maps, 1)]
    payload = {
        "file": args.rulefile,
        "model": args.model,
        "cells": args.cells,
        "cell_dim": cell_dim,
        "steps": args.steps,
        "neighbourhoods": {
            e.cell: {"causal": sorted(e.causal), "signalling": sorted(e.signalling)}
            for e in entries
        },
        "cones": [
            {
                "step": row.step,
                "causal_sizes": list(row.causal_sizes),
                "signalling_sizes": list(row.signalling_sizes),
            }
            for row in cones
        ],
    }
    lines = [f"{args.model} ring, {args.cells} cells of dim {cell_dim}, {args.steps} step(s)"]
    for e in entries:
        lines.append(
            f"  {e.cell}: causal {{{','.join(sorted(e.causal))}}} "
            f"signalling {{{','.join(sorted(e.signalling))}}}"
        )
    lines.append("cone sizes per step (causal | signalling)")
    for row in cones:
        lines.append(
            f"  step {row.step}: {list(row.causal_sizes)} | {list(row.signalling_sizes)}"
        )
    _emit(args, payload, lines)
    return 0


def cmd_niwd(args) -> int:
    u = load_channel_file(args.file, args.model, args.tol)
    acting = _names_list(args.from_in) if args.from_in else None
    res = check_interaction_without_disturbance(u, acting, args.tol)
    payload = {"file": args.file, **res.to_dict()}
    lines = [
        f"acting block: {','.join(res.acting)}   bystander: {','.join(res.bystander)}",
        f"  premise (discard acting leaves bystander alone): {_yn(res.premise_holds)}",
        f"  factorizes as local action x identity:           {_yn(res.factorizes)}",
        f"verdict: {res.verdict}",
    ]
    if res.forced_influence is not None:
        lines.append(f"forced causal influence onto bystander confirmed: {_yn(res.forced_influence)}")
    _emit(args, payload, lines)
    if res.forced_influence is False:
        raise ConsistencyError("premise held without factorization, yet no causal influence")
    return 0


# -- entry point -------------------------------------------------------------------


def tolerance(raw: str) -> float:
    """The ``--tol`` type: a finite number >= 0, else a usage error."""
    tol = float(raw)
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(raw)
    return tol


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped onto the parse-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="causal-lens", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_model=True):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--tol", type=tolerance, default=DEFAULT_TOL)
        p.add_argument("--timestamps", action="store_true", help="add a timestamp in text mode")
        if with_model:
            p.add_argument("--model", choices=("classical", "quantum"), default=None)

    p = sub.add_parser("analyze", help="pairwise causal and signalling matrices")
    p.add_argument("file")
    common(p)
    p.set_defaults(run=cmd_analyze)

    p = sub.add_parser("hierarchy", help="causal / memory / signalling triple for one pair")
    p.add_argument("file")
    p.add_argument("--from", dest="from_in", required=True, metavar="NAMES")
    p.add_argument("--to", dest="to_out", required=True, metavar="NAMES")
    common(p)
    p.set_defaults(run=cmd_hierarchy)

    p = sub.add_parser("oracle", help="brute-force cross-validation of the probe process")
    p.add_argument("file")
    p.add_argument("--env-dim", type=int, default=2)
    p.add_argument(
        "--class",
        dest="intervention_class",
        choices=("constants", "atoms", "all-functions"),
        default="all-functions",
    )
    common(p)
    p.set_defaults(run=cmd_oracle)

    p = sub.add_parser("ca", help="ring automaton neighbourhoods and cone growth")
    p.add_argument("rulefile")
    p.add_argument("--cells", type=int, required=True)
    p.add_argument("--steps", type=int, default=1)
    common(p, with_model=False)
    p.add_argument("--model", choices=("classical", "quantum"), default="classical")
    p.set_defaults(run=cmd_ca)

    p = sub.add_parser("niwd", help="no-interaction-without-disturbance classification")
    p.add_argument("file")
    p.add_argument("--from", dest="from_in", default=None, metavar="NAMES")
    common(p)
    p.set_defaults(run=cmd_niwd)

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser ``main`` reuses; built on first use so that importing stays cheap."""
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.run(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"internal consistency violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
