import hashlib
import tracemalloc

import numpy as np
import pytest

from nlroi.rng import _CHUNK, Prng, raw_to_normals


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
        k scalar draws, each the top 53 bits of next_u64() times 2**-53."""
        for seed in (0, 7, 2**63, 0xDEADBEEF):
            a = Prng(seed)
            b = Prng(seed)
            block = a.uniforms(37)
            singles = np.array([(b.next_u64() >> 11) * 2.0**-53 for _ in range(37)])
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

    @pytest.mark.parametrize("bound", [2.5, 7.0])
    def test_randint_rejects_a_non_integer_bound(self, bound):
        with pytest.raises(TypeError):
            Prng(0).randint(bound)

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

    @pytest.mark.parametrize("k", [-1, 4])
    def test_sample_indices_rejects_k_outside_range(self, k):
        with pytest.raises(ValueError, match=f"cannot sample {k} indices from range"):
            Prng(0).sample_indices(3, k)

    def test_empty_block_leaves_state_alone(self):
        a = Prng(6)
        b = Prng(6)
        a.uniforms(0)
        a.u64s(0)
        a.sample_indices(4, 0)
        assert a.next_u64() == b.next_u64()

    @pytest.mark.parametrize(
        "draw",
        [
            lambda p, k: p.u64s(k),
            lambda p, k: p.uniforms(k),
            lambda p, k: p.normals(k),
            lambda p, k: p.uniforms_in(k, -1.0, 1.0),
        ],
        ids=["u64s", "uniforms", "normals", "uniforms_in"],
    )
    def test_negative_count_raises_and_leaves_state_alone(self, draw):
        # a negative count once moved the state back and replayed outputs
        a = Prng(6)
        b = Prng(6)
        for count in (-1, -3):
            with pytest.raises(ValueError, match=f"got {count}$"):
                draw(a, count)
        assert a.next_u64() == b.next_u64()

    def test_numpy_integer_count(self):
        # count * GAMMA overflowed an int64 count
        a = Prng(6)
        b = Prng(6)
        assert a.normals(np.int64(5)).tobytes() == b.normals(5).tobytes()
        assert a.u64s(np.uint32(3)).tolist() == b.u64s(3).tolist()
        with pytest.raises(TypeError):
            a.uniforms(5.0)
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


class TestChunks:
    """Block draws fill their result one chunk of ``_CHUNK`` outputs at a
    time; the chunks must give the bits of the whole stream."""

    @pytest.mark.parametrize("count", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
    def test_chunk_edges_match_scalar(self, count):
        for seed in (5, 2**64 - 1):
            ref = Prng(seed)
            scalar = [ref.next_u64() for _ in range(count)]
            after = ref.next_u64()
            a = Prng(seed)
            assert a.u64s(count).tolist() == scalar
            assert a.next_u64() == after
            b = Prng(seed)
            singles = np.array([(v >> 11) * 2.0**-53 for v in scalar])
            assert np.array_equal(b.uniforms(count), singles)
            assert b.next_u64() == after

    def test_normals_equal_consecutive_smaller_draws_across_a_chunk_edge(self):
        # normals(k) takes 2k uniforms: the whole draw crosses two chunk
        # edges, and the middle piece starts 2 uniforms before the first
        whole_prng, parts_prng = Prng(12), Prng(12)
        whole = whole_prng.normals(_CHUNK + 7)
        parts = [parts_prng.normals(k) for k in (_CHUNK // 2 - 1, 3, _CHUNK // 2 + 5)]
        assert np.concatenate(parts).tobytes() == whole.tobytes()
        assert whole_prng.next_u64() == parts_prng.next_u64()

    @pytest.mark.parametrize(
        "rows, width",
        [(r, w) for r in (1, 3) for w in (_CHUNK - 2, _CHUNK, _CHUNK + 2, 3 * _CHUNK + 4)]
        + [(3, 6), (5000, 6)],
    )
    def test_raw_to_normals_is_normals(self, rows, width):
        # rows of raw outputs, in row order, are one stream: one row per
        # piece (up to _CHUNK), column pieces with a remainder (wider),
        # several rows per piece (width 6, 5000 rows leave a remainder)
        raw = Prng(rows + width).u64s(rows * width).reshape(rows, width)
        out = np.full((rows + 2, width // 2), 7.5)
        raw_to_normals(raw, out[:rows])
        assert out[:rows].tobytes() == Prng(rows + width).normals(rows * width // 2).tobytes()
        # the rows past the block's stay untouched
        assert np.all(out[rows:] == 7.5)

    @pytest.mark.parametrize(
        "rows, width, digest",
        [
            # a toy training step's noise: several rows per piece
            (8, 256, "fa220b0f2e00042d6e3ec7394cb9c10129e28f4c117ac1ae22e8dc3ccaa26d37"),
            # one row in one piece
            (1, 2304, "7e4cd82189ced558557aec3510fb261aac8edccafde4dd98dadc0c363c97748e"),
            # rows wider than a piece: each in column pieces with a remainder
            (3, 40000, "62d109f38be4a46cb03a21089d155d0d203d29021f2824656892dd497d175ba3"),
            (8, 65536, "7254c69f65006f965cfcbbb3de6a45c82e75dc81f3e44947bc2c4cfe369b5a19"),
        ],
    )
    def test_raw_to_normals_frozen_digests(self, rows, width, digest):
        # SHA-256 of the normals when one-row and several-row pieces took
        # separate loops, a 1-D view for the former
        raw = Prng(rows * width).u64s(rows * width).reshape(rows, width)
        out = np.empty((rows, width // 2))
        raw_to_normals(raw, out)
        assert hashlib.sha256(out.tobytes()).hexdigest() == digest

    def test_frozen_digests(self):
        # SHA-256 of the bytes the whole-array draws gave before chunking
        normals = Prng(7).normals(2_007_040)
        assert hashlib.sha256(normals.tobytes()).hexdigest() == (
            "6c4a83e18409f7e7080cbab5aff9e5fcc8847e421f11ea58820b4954c150aaaa"
        )
        weights = Prng(7).uniforms_in(2_007_040, -0.5, 0.25)
        assert hashlib.sha256(weights.tobytes()).hexdigest() == (
            "179eef10ea079b04013405eeff31c9769493fd36e5959d820cbe1c05a989ed51"
        )

    def test_normals_peak_is_about_its_output(self):
        # whole-array temporaries held 4x the output
        prng = Prng(1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = prng.normals(2_007_040)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * out.nbytes
