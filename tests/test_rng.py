import numpy as np
import pytest

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


@pytest.mark.parametrize("seed", [0, 66, 2**63 + 5])
def test_every_draw_is_numpys_philox_stream_of_the_seed(seed):
    # the draws the package takes, each with numpy's own signature, interleaved on one stream
    rng, ref = Rng(seed), np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    assert np.array_equal(rng.normal(size=(3, 4)), ref.normal(size=(3, 4)))
    assert np.array_equal(rng.normal(0.0, 0.02, size=(2, 5)), ref.normal(0.0, 0.02, size=(2, 5)))
    assert np.array_equal(rng.uniform(size=7), ref.uniform(size=7))
    assert np.array_equal(rng.uniform(0.2, 0.6, size=(4, 3)), ref.uniform(0.2, 0.6, size=(4, 3)))
    assert np.array_equal(rng.integers(0, 3, size=9), ref.integers(0, 3, size=9))
    assert np.array_equal(rng.permutation(20), ref.permutation(20))
    out, want = np.zeros((5, 2)), np.zeros((5, 2))
    block = out[:3]  # a leading block of a buffer, as the generator fills them
    assert rng.standard_normal(out=block) is block
    ref.standard_normal(out=want[:3])
    assert np.array_equal(out, want)
    child = np.random.Generator(np.random.Philox(np.random.SeedSequence(derive_seed(seed, "data"))))
    assert np.array_equal(Rng(seed).child("data").normal(size=50), child.normal(size=50))
