"""Exact Lorentz linear algebra: causal classification and frame validation."""

import numpy as np
import pytest
from scipy.linalg import expm

from lightcone.errors import CausalDomainError, InvalidInputError
from lightcone.lorentz import (
    ETA,
    CausalCharacter,
    causal_character,
    gram_matrix,
    inner,
    is_future_directed,
    validate_frame_of_reference,
)


def boost_x(rapidity=1.0):
    b = np.eye(4)
    b[0, 0] = b[1, 1] = np.cosh(rapidity)
    b[0, 1] = b[1, 0] = np.sinh(rapidity)
    return b


def random_restricted_lorentz(rng):
    """exp of a random boost+rotation generator lands in the identity component."""
    a, b, c = rng.normal(scale=0.7, size=3)
    d, e, f = rng.normal(scale=0.7, size=3)
    gen = np.array([
        [0, a, b, c],
        [a, 0, d, e],
        [b, -d, 0, f],
        [c, -e, -f, 0],
    ])
    return expm(gen)


class TestCausalCharacter:
    def test_timelike(self):
        assert causal_character(ETA, [1, 0, 0, 0]) is CausalCharacter.TIMELIKE

    def test_lightlike(self):
        assert causal_character(ETA, [1, 1, 0, 0]) is CausalCharacter.LIGHTLIKE

    def test_spacelike(self):
        v = [0.5, 1, 0, 0]
        assert inner(ETA, v, v) == pytest.approx(-0.75)
        assert causal_character(ETA, v) is CausalCharacter.SPACELIKE

    def test_zero(self):
        assert causal_character(ETA, [0, 0, 0, 0]) is CausalCharacter.ZERO

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            causal_character(ETA, [np.nan, 0, 0, 0])

    def test_invariant_under_restricted_lorentz(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            lam = random_restricted_lorentz(rng)
            v = rng.normal(size=4)
            if causal_character(ETA, v) is CausalCharacter.LIGHTLIKE:
                continue  # the classification boundary itself is tolerance-fuzzy
            assert causal_character(ETA, v) is causal_character(ETA, lam @ v)


class TestFutureDirected:
    def test_timelike_future(self):
        assert is_future_directed(ETA, [1, 0, 0, 0], [2, 1, 0, 0])

    def test_timelike_past(self):
        assert not is_future_directed(ETA, [1, 0, 0, 0], [-1, 0, 0, 0])

    def test_lightlike_past(self):
        assert not is_future_directed(ETA, [1, 0, 0, 0], [-1, 1, 0, 0])

    def test_spacelike_rejected(self):
        with pytest.raises(CausalDomainError):
            is_future_directed(ETA, [1, 0, 0, 0], [0, 1, 0, 0])

    def test_transitive_on_cone_halves(self):
        rng = np.random.default_rng(3)
        ref = np.array([1.0, 0, 0, 0])
        for _ in range(50):
            sp = rng.normal(scale=0.4, size=(3, 3))
            vs = [np.array([1.0, *row]) / np.sqrt(max(1e-6, 1 - row @ row))
                  for row in sp if row @ row < 0.8]
            vs = [v for v in vs if causal_character(ETA, v) is CausalCharacter.TIMELIKE]
            flips = rng.choice([-1.0, 1.0], size=len(vs))
            vs = [f * v for f, v in zip(flips, vs)]
            for u in vs:
                for w in vs:
                    same_half = is_future_directed(ETA, ref, u) == is_future_directed(ETA, ref, w)
                    assert (inner(ETA, u, w) > 0) == same_half


def is_admissible_transform(lam, tol=1e-8):
    """A matrix is a restricted Lorentz transformation iff its columns are an
    admissible frame against the standard one: orthonormal, future-directed
    and right-handed."""
    return validate_frame_of_reference(ETA, [1, 0, 0, 0], np.eye(4), lam, tol)


class TestRestrictedLorentz:
    def test_identity(self):
        assert is_admissible_transform(np.eye(4))

    def test_time_inversion(self):
        assert not is_admissible_transform(np.diag([-1.0, 1, 1, 1]))

    def test_space_inversion(self):
        assert not is_admissible_transform(np.diag([1.0, -1, 1, 1]))

    def test_boost(self):
        assert is_admissible_transform(boost_x(1.0))

    def test_random_members(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            lam = random_restricted_lorentz(rng)
            assert is_admissible_transform(lam)
            # composing with a space or time inversion leaves the component
            assert not is_admissible_transform(lam @ np.diag([1.0, -1, 1, 1]))
            assert not is_admissible_transform(np.diag([-1.0, 1, 1, 1]) @ lam)


class TestFrameValidation:
    def test_standard_frame(self):
        assert validate_frame_of_reference(ETA, [1, 0, 0, 0], np.eye(4), np.eye(4))

    def test_past_directed_rejected(self):
        flipped = np.eye(4)
        flipped[:, 0] *= -1
        assert not validate_frame_of_reference(ETA, [1, 0, 0, 0], np.eye(4), flipped)

    def test_orientation_flip_rejected(self):
        swap = np.eye(4)[:, [0, 2, 1, 3]]
        assert not validate_frame_of_reference(ETA, [1, 0, 0, 0], np.eye(4), swap)

    def test_boosted_frame_accepted(self):
        assert validate_frame_of_reference(ETA, [1, 0, 0, 0], np.eye(4), boost_x(0.8))

    def test_gram(self):
        b = boost_x(0.5)
        assert np.max(np.abs(gram_matrix(ETA, b) - ETA)) < 1e-12

    def test_non_orthonormal_rejected(self):
        bad = np.eye(4) + 0.01 * np.ones((4, 4))
        assert not validate_frame_of_reference(ETA, [1, 0, 0, 0], np.eye(4), bad)
