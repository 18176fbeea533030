"""Tests for generalized Pauli string arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditsim.errors import BlockFormatError, DimensionError, ShapeError
from quditsim.pauli import Dimension, PauliString, is_prime


def random_pauli(rng, n, d):
    return PauliString(Dimension(d),
                       rng.integers(0, d, size=n),
                       rng.integers(0, d, size=n),
                       int(rng.integers(0, d)))


class TestDimension:
    """Dimension value object."""

    def test_prime_flags(self):
        assert Dimension(3).is_odd_prime
        assert Dimension(2).is_prime and not Dimension(2).is_odd_prime
        assert not Dimension(4).is_prime
        assert not Dimension(9).is_prime

    def test_d_prime_doubles_for_even(self):
        assert Dimension(3).d_prime == 3
        assert Dimension(4).d_prime == 8
        assert Dimension(2).d_prime == 4

    def test_rejects_bad_values(self):
        with pytest.raises(DimensionError):
            Dimension(1)
        with pytest.raises(DimensionError):
            Dimension(0)
        with pytest.raises(DimensionError, match="lie in"):
            Dimension(Dimension.MAX + 1)
        assert Dimension(Dimension.MAX).d_prime == 2 * Dimension.MAX

    def test_phases(self):
        d = Dimension(3)
        assert np.isclose(d.omega(), np.exp(2j * np.pi / 3))
        d4 = Dimension(4)
        # tau^2 = omega for even d
        assert np.isclose(d4.tau() ** 2, d4.omega())

    def test_is_prime_helper(self):
        primes = [2, 3, 5, 7, 11, 13]
        assert all(is_prime(p) for p in primes)
        assert not any(is_prime(c) for c in [4, 6, 8, 9, 10, 12])


class TestMul:
    """Products follow ZX = wXZ reordering."""

    def test_x_times_z_no_phase(self):
        d = Dimension(3)
        x = PauliString.single(1, d, 0, x=1)
        z = PauliString.single(1, d, 0, z=1)
        prod = x.mul(z)
        assert prod.x.tolist() == [1]
        assert prod.z.tolist() == [1]
        assert prod.r == 0

    def test_z_times_x_picks_up_omega(self):
        d = Dimension(3)
        x = PauliString.single(1, d, 0, x=1)
        z = PauliString.single(1, d, 0, z=1)
        prod = z.mul(x)
        assert prod.x.tolist() == [1]
        assert prod.z.tolist() == [1]
        assert prod.r == 1

    def test_identity_is_neutral(self):
        d = Dimension(5)
        rng = np.random.default_rng(3)
        p = random_pauli(rng, 4, 5)
        ident = PauliString.identity(4, d)
        assert p.mul(ident) == p
        assert ident.mul(p) == p

    def test_shape_mismatch_rejected(self):
        a = PauliString.identity(2, Dimension(3))
        b = PauliString.identity(3, Dimension(3))
        with pytest.raises(ShapeError):
            a.mul(b)

    def test_dimension_mismatch_rejected(self):
        a = PauliString.identity(2, Dimension(3))
        b = PauliString.identity(2, Dimension(5))
        with pytest.raises(DimensionError):
            a.mul(b)

    @given(st.integers(0, 10**6), st.sampled_from([2, 3, 4, 5, 7]),
           st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_associative(self, seed, d, n):
        rng = np.random.default_rng(seed)
        p, q, s = (random_pauli(rng, n, d) for _ in range(3))
        assert p.mul(q).mul(s) == p.mul(q.mul(s))


class TestPow:
    """Integer powers."""

    def test_x_cubed_is_identity(self):
        d = Dimension(3)
        x = PauliString.single(1, d, 0, x=1)
        assert x.pow(3) == PauliString.identity(1, d)

    def test_xz_squared_phase(self):
        # (XZ)^2 = w X^2 Z^2 from the one reorder
        d = Dimension(3)
        xz = PauliString.single(1, d, 0, x=1, z=1)
        sq = xz.pow(2)
        assert sq.x.tolist() == [2]
        assert sq.z.tolist() == [2]
        assert sq.r == 1

    def test_identity_power(self):
        ident = PauliString.identity(3, Dimension(3))
        assert ident.pow(7) == ident

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_integers_of_any_kind(self, d):
        """Any integral k, however large or negative, gives the product of
        k mod d' copies: d' is a multiple of every string's order."""
        p = PauliString(Dimension(d), [1, 1], [1, 0], 1)
        for k in (2.0, np.int64(5), 3 ** 60, -(3 ** 60) + 1, -1):
            want = PauliString.identity(2, Dimension(d))
            for _ in range(int(k) % Dimension(d).d_prime):
                want = want.mul(p)
            assert p.pow(k) == want, k

    @given(st.integers(0, 10**6), st.sampled_from([3, 5]), st.integers(0, 9))
    @settings(max_examples=40, deadline=None)
    def test_pow_matches_repeated_mul(self, seed, d, k):
        rng = np.random.default_rng(seed)
        p = random_pauli(rng, 3, d)
        acc = PauliString.identity(3, Dimension(d))
        for _ in range(k):
            acc = acc.mul(p)
        assert p.pow(k) == acc


class TestCommutation:
    """Symplectic commutation exponent."""

    def test_z_x_is_one(self):
        d = Dimension(3)
        x = PauliString.single(1, d, 0, x=1)
        z = PauliString.single(1, d, 0, z=1)
        assert z.commutation_exponent(x) == 1

    def test_self_commutes(self):
        rng = np.random.default_rng(11)
        for d in (3, 5, 7):
            p = random_pauli(rng, 3, d)
            assert p.commutation_exponent(p) == 0
            assert p.commutes(p)

    def test_two_qudit_cancellation(self):
        d = Dimension(5)
        xz = PauliString(d, [1, 0], [0, 1], 0)
        zx = PauliString(d, [0, 1], [1, 0], 0)
        assert xz.commutation_exponent(zx) == 0

    @given(st.integers(0, 10**6), st.sampled_from([3, 5, 7]))
    @settings(max_examples=50, deadline=None)
    def test_antisymmetric(self, seed, d):
        rng = np.random.default_rng(seed)
        p = random_pauli(rng, 4, d)
        q = random_pauli(rng, 4, d)
        c = p.commutation_exponent(q)
        assert q.commutation_exponent(p) == (-c) % d

    @given(st.integers(0, 10**6), st.sampled_from([3, 5, 7]))
    @settings(max_examples=50, deadline=None)
    def test_exponent_realized_by_products(self, seed, d):
        # p q = w^c q p as strings
        rng = np.random.default_rng(seed)
        p = random_pauli(rng, 3, d)
        q = random_pauli(rng, 3, d)
        c = p.commutation_exponent(q)
        lhs = p.mul(q)
        rhs = q.mul(p)
        assert lhs.x.tolist() == rhs.x.tolist()
        assert lhs.r == (rhs.r + c) % d


class TestInverse:
    """Group inverses with exact phase."""

    def test_x_inverse(self):
        d = Dimension(3)
        x = PauliString.single(1, d, 0, x=1)
        inv = x.inverse()
        assert inv.x.tolist() == [2]
        assert x.mul(inv) == PauliString.identity(1, d)

    def test_z_power_inverse(self):
        d = Dimension(5)
        z3 = PauliString.single(1, d, 0, z=3)
        inv = z3.inverse()
        assert inv.z.tolist() == [2]
        assert inv.r == 0

    def test_identity_inverse(self):
        ident = PauliString.identity(2, Dimension(7))
        assert ident.inverse() == ident

    @given(st.integers(0, 10**6), st.sampled_from([2, 3, 4, 5, 7]),
           st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_product_with_inverse_is_identity(self, seed, d, n):
        rng = np.random.default_rng(seed)
        p = random_pauli(rng, n, d)
        assert p.mul(p.inverse()) == PauliString.identity(n, Dimension(d))


class TestBlockForm:
    """Flat [x | z | r] encoding."""

    def test_phased_z_reading(self):
        d = Dimension(3)
        p = PauliString.single(1, d, 0, z=1, r=2)
        assert p.encode_block().tolist() == [0, 1, 2]

    def test_two_qudit_x_squares(self):
        d = Dimension(3)
        p = PauliString(d, [2, 2], [0, 0], 0)
        assert p.encode_block().tolist() == [2, 2, 0, 0, 0]

    def test_decode_rejects_out_of_range(self):
        with pytest.raises(BlockFormatError):
            PauliString.decode_block([3, 0, 0], 3)

    @given(st.integers(0, 10**6), st.sampled_from([2, 3, 4, 5, 7]),
           st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, seed, d, n):
        rng = np.random.default_rng(seed)
        p = random_pauli(rng, n, d)
        assert PauliString.decode_block(p.encode_block(), d) == p


class TestIntegerExponents:
    """Exponents and phases are refused, not truncated, unless they are
    integers."""

    CASES = {
        "x": lambda: PauliString(Dimension(3), [1.5, 0], [0, 0]),
        "z": lambda: PauliString(Dimension(3), [1, 0], [0, 2.7]),
        "z_array": lambda: PauliString(Dimension(3), [0], np.array([0.5])),
        "z_nan": lambda: PauliString(Dimension(3), [0], [np.nan]),
        "x_text": lambda: PauliString(Dimension(3), ["one"], [0]),
        "r": lambda: PauliString(Dimension(3), [1, 0], [0, 0], 1.5),
        "single_x": lambda: PauliString.single(2, Dimension(3), 0, x=1.5),
        "single_z": lambda: PauliString.single(2, Dimension(3), 0, z=0.5),
        "single_r": lambda: PauliString.single(2, Dimension(3), 0, r=2.5),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_rejected(self, case):
        with pytest.raises(ShapeError, match="must be an integer"):
            self.CASES[case]()

    def test_integers_of_any_kind_pass(self):
        d = Dimension(3)
        want = PauliString(d, [1, 0], [0, 2], 1)
        assert PauliString(d, np.array([1, 0], dtype=np.int8),
                           np.array([0, 2], dtype=np.uint16), np.int64(1)) == want
        assert PauliString(d, [1.0, 0.0], [0, np.int32(2)], 1.0) == want
        assert PauliString(d, np.array([True, False]), [0, 5], -2) == want
        assert PauliString(d, [1e30, 0], [3 ** 60, 2], 1) == want
        assert PauliString.single(2, d, 0, x=np.int64(4)) == PauliString(d, [1, 0], [0, 0])


class TestRendering:
    """Debug text forms."""

    def test_str_mentions_powers(self):
        d = Dimension(3)
        p = PauliString.single(2, d, 1, x=2, z=1, r=1)
        text = str(p)
        assert "w^1" in text and "X^2" in text and "Z" in text

    def test_negative_inputs_reduced(self):
        d = Dimension(5)
        p = PauliString(d, [-1], [-2], -3)
        assert p.x.tolist() == [4]
        assert p.z.tolist() == [3]
        assert p.r == 2

    def test_immutable(self):
        p = PauliString.identity(2, Dimension(3))
        with pytest.raises(Exception):
            p.r = 1
        with pytest.raises(Exception):
            p.x[0] = 1
