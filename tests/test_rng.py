import numpy as np
import pytest

from nlroi.rng import Prng


class TestStream:
    def test_same_seed_same_stream(self):
        a = Prng(1234)
        b = Prng(1234)
        assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]

    def test_different_seeds_diverge(self):
        a = Prng(0)
        b = Prng(1)
        assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]

    def test_known_splitmix_vector(self):
        # first output for seed 0 of the reference splitmix64 stepping
        assert Prng(0).next_u64() == 0xE220A8397B1DCDAF

    def test_vectorized_matches_scalar(self):
        """uniforms(k) must advance the state and produce values exactly as
        k scalar uniform() calls would."""
        for seed in (0, 7, 2**63, 0xDEADBEEF):
            a = Prng(seed)
            b = Prng(seed)
            block = a.uniforms(37)
            singles = np.array([b.uniform() for _ in range(37)])
            assert np.array_equal(block, singles)
            # both streams continue identically afterwards
            assert a.next_u64() == b.next_u64()

    def test_raw_block_matches_scalar(self):
        for seed in (0, 7, 2**63, 0xDEADBEEF, 2**64 - 1):
            a = Prng(seed)
            b = Prng(seed)
            assert a.u64s(41).tolist() == [b.next_u64() for _ in range(41)]
            assert a.next_u64() == b.next_u64()
        assert Prng(3).u64s(0).size == 0

    def test_uniform_range_and_53bit_grid(self):
        u = Prng(3).uniforms(10000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        # every value is an integer multiple of 2^-53
        assert np.array_equal(u * 2.0**53, np.floor(u * 2.0**53))


class TestDerivedDraws:
    def test_normals_match_scalar_path(self):
        a = Prng(11)
        b = Prng(11)
        assert np.array_equal(a.normals(16), np.array([b.normals(1)[0] for _ in range(16)]))

    def test_normals_are_finite_and_centered(self):
        z = Prng(5).normals(20000)
        assert np.all(np.isfinite(z))
        assert abs(z.mean()) < 0.03
        assert abs(z.std() - 1.0) < 0.03

    def test_uniforms_in_bounds(self):
        v = Prng(9).uniforms_in(1000, -2.5, 4.0)
        assert np.all(v >= -2.5) and np.all(v < 4.0)

    def test_randint_range(self):
        p = Prng(2)
        draws = [p.randint(7) for _ in range(2000)]
        assert set(draws) == set(range(7))

    def test_randint_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Prng(0).randint(0)

    def test_sample_indices_distinct(self):
        p = Prng(4)
        for _ in range(200):
            idx = p.sample_indices(10, 6)
            assert len(idx) == 6
            assert len(set(idx)) == 6
            assert all(0 <= i < 10 for i in idx)

    def test_sample_indices_full_permutation(self):
        perm = Prng(8).sample_indices(5, 5)
        assert sorted(perm) == [0, 1, 2, 3, 4]

    def test_empty_block_leaves_state_alone(self):
        a = Prng(6)
        b = Prng(6)
        a.uniforms(0)
        a.u64s(0)
        a.sample_indices(4, 0)
        assert a.next_u64() == b.next_u64()

    def test_sample_indices_match_scalar_shuffle(self):
        """The block draw gives the swaps that one randint(n - i) per swap
        gave, and leaves the stream where that loop left it."""

        def loop(prng, n, k):
            pool = list(range(n))
            for i in range(k):
                j = i + prng.randint(n - i)
                pool[i], pool[j] = pool[j], pool[i]
            return pool[:k]

        for seed in range(50):
            for n, k in ((1, 1), (2, 2), (3, 2), (8, 5), (1024, 615), (1024, 1024)):
                a = Prng(seed * 1000 + n)
                b = Prng(seed * 1000 + n)
                assert a.sample_indices(n, k) == loop(b, n, k)
                assert a.next_u64() == b.next_u64()
