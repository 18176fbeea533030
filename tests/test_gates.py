"""The gate table's conjugation rules against the dense oracle."""

import itertools

import numpy as np
import pytest

from quditsim.gates import GATE_TABLE, GATES, SINGLE_QUDIT_GATES
from quditsim.pauli import Dimension, PauliString
from quditsim.statevector import conjugate_pauli

from weyl_helpers import weyl_canonical, weyl_from_pauli


def all_paulis(n, d):
    dim = Dimension(d)
    for xs in itertools.product(range(d), repeat=n):
        for zs in itertools.product(range(d), repeat=n):
            yield PauliString(dim, list(xs), list(zs), 0)


def tau_image(gate, p):
    """Table image of p in Weyl form, folded to coordinates in [0, d)."""
    dim = p.dimension
    f, v = weyl_from_pauli(p)
    n, dp = p.n, dim.d_prime
    z, x = v[:n].copy(), v[n:].copy()
    if gate.arity == 1:
        f = (f + (gate.tau(x[0], z[0], dim.d) or 0)) % dp
        if gate.cols is not None:
            x[0], z[0] = gate.cols(x[0], z[0], dp)
    else:
        x[1], z[0] = gate.cols(x[0], z[0], x[1], z[1], dp)
    return weyl_canonical(f, np.concatenate([z, x]), dim)


def omega_image(gate, p):
    """Table image of p as a tableau row (odd prime d)."""
    d = p.dimension.d
    x, z, r = p.x.copy(), p.z.copy(), p.r
    if gate.arity == 1:
        r = (r + gate.omega(x[0], z[0], d)) % d
        if gate.cols is not None:
            x[0], z[0] = gate.cols(x[0], z[0], d)
    else:
        x[1], z[0] = gate.cols(x[0], z[0], x[1], z[1], d)
    return PauliString(p.dimension, x, z, int(r))


def cases(max_sum_d):
    for gate in GATE_TABLE:
        for d in (2, 3, 4, 5, 6):
            if gate.arity == 1 or d <= max_sum_d:
                yield pytest.param(gate.name, d, id=f"{gate.name}-d{d}")


class TestTable:
    """Names, arities and inverses."""

    def test_single_gate_order(self):
        # seeded random circuits draw from this tuple by index
        assert SINGLE_QUDIT_GATES == ("X", "X_INV", "Z", "Z_INV",
                                      "F", "F_INV", "P", "P_INV")

    def test_inverses_pair_up(self):
        for gate in GATE_TABLE:
            inv = GATES[gate.inverse]
            assert inv.inverse == gate.name and inv.arity == gate.arity


class TestOracle:
    """Every rule matches dense conjugation on every Pauli it can see."""

    @pytest.mark.parametrize("name, d", cases(max_sum_d=4))
    def test_tau_rule(self, name, d):
        gate = GATES[name]
        dp = Dimension(d).d_prime
        for p in all_paulis(gate.arity, d):
            q, tau_pow = conjugate_pauli(name, p)
            f, v = tau_image(gate, p)
            n = gate.arity
            assert v[n:].tolist() == q.x.tolist()
            assert v[:n].tolist() == q.z.tolist()
            # tau^f W_(z, x) = tau^(f + z.x) X^x Z^z
            assert (f + int(v[:n] @ v[n:])) % dp == (2 * q.r + tau_pow) % dp

    @pytest.mark.parametrize("name, d", [
        pytest.param(g.name, d, id=f"{g.name}-d{d}")
        for g in GATE_TABLE for d in (3, 5)])
    def test_omega_rule(self, name, d):
        gate = GATES[name]
        for p0 in all_paulis(gate.arity, d):
            for r in range(d):
                p = PauliString(p0.dimension, p0.x, p0.z, r)
                q, tau_pow = conjugate_pauli(name, p)
                assert tau_pow == 0
                assert omega_image(gate, p) == q


class TestColumnWriteBack:
    """cols returns fresh arrays, so a caller that passes views of one array
    (Tableau.apply_gate, the Weyl tableau, compile_circuit's backward pass)
    may write the results back over its inputs in either order."""

    @pytest.mark.parametrize("m", [2, 3, 5, 7, 127])
    @pytest.mark.parametrize("name", [g.name for g in GATE_TABLE
                                      if g.cols is not None])
    def test_write_back_in_either_order(self, name, m):
        gate = GATES[name]
        u, v = np.array(list(itertools.product(range(m), repeat=2))).T
        # SUM's new x_t depends on (x_c, x_t) and its new z_c on (z_c, z_t),
        # so (u, u, v, v) covers every input pair of both outputs
        inputs = np.stack((u, v) if gate.arity == 1 else (u, u, v, v), axis=1)
        # the columns the results replace: (x, z), or SUM's (x_t, z_c)
        targets = (0, 1) if gate.arity == 1 else (2, 1)
        pure = gate.cols(*inputs.T.copy(), m)
        for order in (targets, targets[::-1]):
            cols = inputs.copy()
            out = gate.cols(*cols.T, m)
            assert not any(np.shares_memory(o, cols) for o in out)
            for c in order:
                cols[:, c] = out[targets.index(c)]
            for c, expected in zip(targets, pure):
                assert np.array_equal(cols[:, c], expected)
