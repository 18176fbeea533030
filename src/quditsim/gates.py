"""The Clifford gate set, defined once for every backend.

Each gate is a row of GATE_TABLE: its canonical name, the aliases accepted
on input, its arity, its inverse and its action by conjugation on Pauli
operators.  The tableau, the Weyl backend, the circuit format and the
experiment builders all read their gate semantics from here; the dense
matrices in statevector.gate_matrix are written out independently,
because they are the oracle the rules below are tested against.

Conventions (see pauli.py and weyl.py):

- A tableau row is w^r X^x Z^z, with x, z and r in Z_d (odd prime d).
- A Weyl element is tau^f W_(z, x), with coordinates and f taken mod
  d' = d (odd d) or 2d (even d), and tau^2 = w.

A single-qudit gate maps one qudit's exponent columns (x, z) by a
symplectic matrix.  Given numpy columns reduced mod m, cols(x, z, m)
returns the new columns reduced mod m as fresh arrays, so that callers may
pass views and write the results back in either order; cols is None for X
and Z powers, which move only phases.  omega(x, z, d) is the increment of
r (tableau rows) and tau(x, z, d) the increment of f (Weyl coordinates,
None where f does not move), both computed from the columns before the
gate.  P and P_INV move the tau phase only for odd d: for even d the phase
gate is diag(tau^(j^2)), which fixes the Weyl phase.

SUM (control c, target t) maps x_t -> x_t + x_c and z_c -> z_c - z_t,
SUM_INV the same with the signs flipped; neither moves a phase.  Their
cols(x_c, z_c, x_t, z_t, m) returns the new (x_t, z_c).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import ShapeError


@dataclass(frozen=True)
class Gate:
    """One gate: names, arity, inverse and its conjugation rules."""

    name: str
    arity: int
    inverse: str
    cols: Optional[Callable] = None
    omega: Optional[Callable] = None
    tau: Optional[Callable] = None
    aliases: tuple = ()


GATE_TABLE = (
    Gate("X", 1, "X_INV",
         omega=lambda x, z, d: -z, tau=lambda x, z, d: -2 * z),
    Gate("X_INV", 1, "X",
         omega=lambda x, z, d: z, tau=lambda x, z, d: 2 * z),
    Gate("Z", 1, "Z_INV",
         omega=lambda x, z, d: x, tau=lambda x, z, d: 2 * x),
    Gate("Z_INV", 1, "Z",
         omega=lambda x, z, d: -x, tau=lambda x, z, d: -2 * x),
    Gate("F", 1, "F_INV", cols=lambda x, z, m: ((m - z) % m, x.copy()),
         omega=lambda x, z, d: -x * z, tau=lambda x, z, d: None,
         aliases=("H",)),
    Gate("F_INV", 1, "F", cols=lambda x, z, m: (z.copy(), (m - x) % m),
         omega=lambda x, z, d: -x * z, tau=lambda x, z, d: None,
         aliases=("H_INV",)),
    Gate("P", 1, "P_INV", cols=lambda x, z, m: (x.copy(), (z + x) % m),
         omega=lambda x, z, d: (x * (x - 1)) // 2,
         tau=lambda x, z, d: -x if d % 2 else None),
    Gate("P_INV", 1, "P", cols=lambda x, z, m: (x.copy(), (z + (m - x)) % m),
         omega=lambda x, z, d: -((x * (x - 1)) // 2),
         tau=lambda x, z, d: x if d % 2 else None),
    Gate("SUM", 2, "SUM_INV",
         cols=lambda xc, zc, xt, zt, m: ((xt + xc) % m, (zc + (m - zt)) % m),
         aliases=("CNOT",)),
    Gate("SUM_INV", 2, "SUM",
         cols=lambda xc, zc, xt, zt, m: ((xt + (m - xc)) % m, (zc + zt) % m),
         aliases=("CNOT_INV",)),
)

GATES = {g.name: g for g in GATE_TABLE}
GATE_ALIASES = {alias: g.name for g in GATE_TABLE for alias in g.aliases}
GATE_ARITY = {g.name: g.arity for g in GATE_TABLE}
# Random builders draw from this tuple, so its order fixes seeded circuits.
SINGLE_QUDIT_GATES = tuple(g.name for g in GATE_TABLE if g.arity == 1)

_BY_NAME = {**GATES, **{a: GATES[name] for a, name in GATE_ALIASES.items()}}


def operand_error(message: str, operand: int) -> ShapeError:
    """ShapeError tagged with the instruction token at fault: 0 for the
    name, k for the k-th operand after it."""
    err = ShapeError(message)
    err.operand = operand
    return err


def check_qudits(name: str, arity: int, qudits, n: int) -> None:
    """Raise an operand_error unless qudits are arity distinct integer
    indices < n."""
    if len(qudits) != arity:
        raise operand_error(
            f"{name} takes {arity} qudit(s), got {len(qudits)}", 0)
    for k, q in enumerate(qudits, 1):
        try:
            in_range = 0 <= operator.index(q) < n
        except TypeError:
            raise operand_error(
                f"qudit index must be an integer, got {q!r}", k) from None
        if not in_range:
            raise operand_error(f"qudit index {q} out of range for n={n}", k)
    if arity == 2 and qudits[0] == qudits[1]:
        raise operand_error(f"{name} needs two distinct qudits", 2)


def lookup(name: str) -> Gate:
    """The gate for a canonical name or alias."""
    gate = _BY_NAME.get(name)
    if gate is None:
        raise operand_error(f"unknown gate name {name!r}", 0)
    return gate


def resolve(name: str, qudits, n: int) -> Gate:
    """lookup(name), after checking its qudit operands on an n-qudit register."""
    gate = lookup(name)
    check_qudits(gate.name, gate.arity, qudits, n)
    return gate
