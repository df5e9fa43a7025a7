import numpy as np

from mculora.rng import Rng, derive_seed


def test_equal_seeds_give_equal_streams():
    a = Rng(66)
    b = Rng(66)
    assert np.array_equal(a.uniform(size=10_000), b.uniform(size=10_000))


def test_different_seeds_diverge():
    assert not np.array_equal(Rng(1).uniform(size=100), Rng(2).uniform(size=100))


def test_child_streams_are_stable_and_named():
    a = Rng(66).child("data")
    b = Rng(66).child("data")
    c = Rng(66).child("init")
    assert np.array_equal(a.normal(size=50), b.normal(size=50))
    assert not np.array_equal(Rng(66).child("data").normal(size=50), c.normal(size=50))


def test_derive_seed_is_pure():
    assert derive_seed(66, "x") == derive_seed(66, "x")
    assert derive_seed(66, "x") != derive_seed(66, "y")
    assert derive_seed(66, "x") != derive_seed(67, "x")


def test_categorical_draws_only_positive_weights():
    draws = [Rng(9).categorical(np.array([0.0, 1.0, 0.0])) for _ in range(5)]
    assert draws == [1] * 5


def test_permutation_is_deterministic():
    assert np.array_equal(Rng(3).permutation(20), Rng(3).permutation(20))
