"""Binary weight serialization: round trips and corruption handling."""

import struct
import zlib

import numpy as np
import pytest

from nlroi.errors import WeightsCorruptionError, WeightsFormatError
from nlroi.rng import Prng
from nlroi.weights import MAGIC, load_weights, save_weights


def sealed(body: bytes) -> bytes:
    """A hand-built file body with its CRC-32 trailer."""
    return body + struct.pack("<I", zlib.crc32(body))


def random_named(prng, count):
    named = {}
    for t in range(count):
        rank = 1 + prng.randint(4)
        dims = tuple(1 + prng.randint(5) for _ in range(rank))
        named[f"tensor_{t}"] = prng.normals(int(np.prod(dims))).reshape(dims)
    return named


class TestRoundTrip:
    def test_random_tensors_bitwise(self, tmp_path):
        prng = Prng(100)
        for trial in range(20):
            path = tmp_path / f"w{trial}.bin"
            named = random_named(prng, 1 + prng.randint(6))
            save_weights(path, named)
            loaded = load_weights(path)
            assert list(loaded) == list(named)
            for name in named:
                assert loaded[name].dtype == np.float64
                assert np.array_equal(loaded[name], named[name])

    def test_resave_is_byte_identical(self, tmp_path):
        named = random_named(Prng(101), 5)
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        save_weights(a, named)
        save_weights(b, load_weights(a))
        assert a.read_bytes() == b.read_bytes()

    def test_pairs_preserve_order(self, tmp_path):
        pairs = [("zz", np.zeros(2)), ("aa", np.ones(3)), ("mm", np.full(1, 5.0))]
        path = tmp_path / "w.bin"
        save_weights(path, pairs)
        assert list(load_weights(path)) == ["zz", "aa", "mm"]

    def test_rank_zero_scalar(self, tmp_path):
        path = tmp_path / "w.bin"
        save_weights(path, {"s": np.array(2.5)})
        loaded = load_weights(path)
        assert loaded["s"].shape == ()
        assert loaded["s"][()] == 2.5

    def test_empty_set_is_just_header(self, tmp_path):
        path = tmp_path / "w.bin"
        save_weights(path, {})
        assert path.read_bytes() == sealed(MAGIC + struct.pack("<I", 0))
        assert load_weights(path) == {}

    def test_non_contiguous_and_non_double_inputs(self, tmp_path):
        path = tmp_path / "w.bin"
        arr = np.arange(24, dtype=np.float32).reshape(4, 6).T  # transposed view
        save_weights(path, {"t": arr})
        assert np.array_equal(load_weights(path)["t"], arr.astype(np.float64))


class TestFormatErrors:
    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes(b"XXXXXXXX" + struct.pack("<I", 0))
        with pytest.raises(WeightsFormatError):
            load_weights(path)

    def test_version_01_names_the_version(self, tmp_path):
        """A file of the format before the CRC-32 is not read."""
        path = tmp_path / "w.bin"
        path.write_bytes(b"NLROIW01" + struct.pack("<I", 0))
        with pytest.raises(WeightsFormatError, match="format NLROIW01 is not read"):
            load_weights(path)

    def test_save_duplicate_names(self, tmp_path):
        with pytest.raises(WeightsFormatError):
            save_weights(tmp_path / "w.bin", [("a", np.zeros(1)), ("a", np.ones(1))])

    def test_load_duplicate_names(self, tmp_path):
        path = tmp_path / "w.bin"
        entry = struct.pack("<H", 1) + b"a" + bytes([1]) + struct.pack("<I", 1)
        entry += struct.pack("<d", 1.0)
        path.write_bytes(sealed(MAGIC + struct.pack("<I", 2) + entry + entry))
        with pytest.raises(WeightsFormatError, match="duplicate tensor name"):
            load_weights(path)

    def test_save_name_past_the_u16_field(self, tmp_path):
        path = tmp_path / "w.bin"
        with pytest.raises(WeightsFormatError, match="name too long \\(65536 bytes\\)"):
            save_weights(path, {"a" * 0xFFFF + "b": np.zeros(1)})
        assert not path.exists()
        save_weights(path, {"a" * 0xFFFF: np.zeros(1)})
        assert list(load_weights(path)) == ["a" * 0xFFFF]

    def test_save_dimension_past_the_u32_field(self, tmp_path):
        # a zero-stride view: 2**32 values without allocating them
        huge = np.broadcast_to(np.zeros(1), (2, 1 << 32))
        path = tmp_path / "w.bin"
        with pytest.raises(WeightsFormatError, match=f"dimension {1 << 32} exceeds"):
            save_weights(path, {"w": huge})
        assert not path.exists()

    def test_name_not_utf8(self, tmp_path):
        path = tmp_path / "w.bin"
        entry = struct.pack("<H", 1) + b"\xff" + bytes([0])
        path.write_bytes(sealed(MAGIC + struct.pack("<I", 1) + entry + struct.pack("<d", 0.0)))
        with pytest.raises(WeightsFormatError, match="not valid UTF-8"):
            load_weights(path)


class TestCorruption:
    def _valid_bytes(self):
        import io
        import tempfile, os

        fd, name = tempfile.mkstemp()
        os.close(fd)
        try:
            save_weights(name, {"w_a": np.arange(6.0).reshape(2, 3), "b": np.ones(4)})
            with open(name, "rb") as fh:
                return fh.read()
        finally:
            os.unlink(name)

    def test_truncation_at_every_boundary(self, tmp_path):
        blob = self._valid_bytes()
        body = blob[:-4]
        path = tmp_path / "w.bin"
        # cut inside the count, the name, the dims, and the payload: the CRC
        # catches a cut file, and the reader a cut body sealed again
        for cut in (10, 14, 17, 19, 30, len(body) - 3):
            path.write_bytes(blob[:cut])
            with pytest.raises(WeightsCorruptionError):
                load_weights(path)
            path.write_bytes(sealed(body[:cut]))
            with pytest.raises(WeightsCorruptionError, match="truncated file: needed"):
                load_weights(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes(b"")
        with pytest.raises(WeightsCorruptionError):
            load_weights(path)

    def test_trailing_garbage(self, tmp_path):
        blob = self._valid_bytes()
        path = tmp_path / "w.bin"
        path.write_bytes(blob + b"\x00")
        with pytest.raises(WeightsCorruptionError):
            load_weights(path)
        path.write_bytes(sealed(blob[:-4] + b"\x00"))
        with pytest.raises(WeightsCorruptionError, match="1 trailing bytes"):
            load_weights(path)

    def test_header_shorter_than_count_field(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes(sealed(MAGIC + b"\x02"))
        with pytest.raises(WeightsCorruptionError, match="needed 4 bytes for tensor count"):
            load_weights(path)

    def test_every_single_bit_flip_raises(self, tmp_path):
        """Each one-bit change of a saved file, one at a time, raises a named
        error: the magic's bits a format error, every other bit a CRC-32
        mismatch."""
        blob = self._valid_bytes()
        path = tmp_path / "w.bin"
        for bit in range(8 * len(blob)):
            damaged = bytearray(blob)
            damaged[bit // 8] ^= 1 << bit % 8
            path.write_bytes(damaged)
            want = WeightsFormatError if bit < 8 * len(MAGIC) else WeightsCorruptionError
            with pytest.raises(want):
                load_weights(path)

    def test_crc_mismatch_names_both_values(self, tmp_path):
        blob = bytearray(self._valid_bytes())
        blob[20] ^= 0x40
        path = tmp_path / "w.bin"
        path.write_bytes(blob)
        found = struct.unpack("<I", blob[-4:])[0]
        crc = zlib.crc32(bytes(blob[:-4]))
        with pytest.raises(
            WeightsCorruptionError, match=rf"holds {found:#010x}, the bytes give {crc:#010x}"
        ):
            load_weights(path)
