import numpy as np
import pytest

from mmtune.encoders import (MediaRef, ModalityConfig, ModalityFeatures,
                             encode_video, fingerprint_bytes, frame_fingerprint,
                             load_features, sample_frames, save_features,
                             stub_encode)
from mmtune.errors import BadMagic, TruncatedFile, UnknownKind


@pytest.fixture
def cfg():
    return ModalityConfig(l_prime=4, image_len=16, image_dim=32, video_frames=8,
                          video_dim=32, audio_len=24, audio_dim=32)


class TestStubEncode:
    def test_deterministic(self, cfg):
        m = MediaRef("image", fingerprint=12345)
        a = stub_encode(m, cfg)
        b = stub_encode(m, cfg)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_shape_contract(self, cfg):
        m = MediaRef("image", fingerprint=1)
        assert stub_encode(m, cfg).matrix.shape == (16, 32)
        assert stub_encode(MediaRef("audio", fingerprint=1), cfg).matrix.shape == (24, 32)

    def test_values_in_range(self, cfg):
        m = stub_encode(MediaRef("image", fingerprint=7), cfg).matrix
        assert m.min() >= -1.0 and m.max() <= 1.0

    def test_distinct_fingerprints_differ(self, cfg):
        rng = np.random.default_rng(0)
        for _ in range(100):
            f1, f2 = rng.integers(0, 2 ** 63, size=2)
            if f1 == f2:
                continue
            a = stub_encode(MediaRef("image", fingerprint=int(f1)), cfg).matrix
            b = stub_encode(MediaRef("image", fingerprint=int(f2)), cfg).matrix
            assert np.mean(a != b) >= 0.99

    def test_unknown_kind(self):
        with pytest.raises(UnknownKind):
            MediaRef("text", fingerprint=1)


class TestFeatureFiles:
    def test_roundtrip_bitwise(self, tmp_path, cfg):
        feats = stub_encode(MediaRef("audio", fingerprint=99), cfg)
        feats.matrix = feats.matrix.astype(np.float32).astype(np.float64)
        p = str(tmp_path / "a.mcwf")
        save_features(p, feats)
        loaded = load_features(p)
        assert loaded.kind == "audio"
        np.testing.assert_array_equal(loaded.matrix, feats.matrix)

    def test_bad_magic(self, tmp_path, cfg):
        p = str(tmp_path / "b.mcwf")
        save_features(p, stub_encode(MediaRef("image", fingerprint=1), cfg))
        raw = bytearray(open(p, "rb").read())
        raw[0] ^= 0xFF
        open(p, "wb").write(bytes(raw))
        with pytest.raises(BadMagic):
            load_features(p)

    def test_truncated(self, tmp_path):
        p = str(tmp_path / "c.mcwf")
        feats = ModalityFeatures("image", np.zeros((16, 32)))
        save_features(p, feats)
        raw = open(p, "rb").read()
        open(p, "wb").write(raw[:4 + 13 + 10 * 4])  # header + 10 floats
        with pytest.raises(TruncatedFile):
            load_features(p)


class TestSampleFrames:
    def test_formula(self):
        assert sample_frames(10, 4) == [0, 2, 5, 7]

    def test_identity(self):
        assert sample_frames(5, 5) == [0, 1, 2, 3, 4]

    def test_repeats_allowed(self):
        assert sample_frames(2, 4) == [0, 0, 1, 1]

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 10_000))
            f = int(rng.integers(1, 10_000))
            idx = sample_frames(n, f)
            assert len(idx) == f
            assert all(0 <= i < n for i in idx)
            assert all(a <= b for a, b in zip(idx, idx[1:]))


class TestEncodeVideo:
    def test_shape(self, cfg):
        m = MediaRef("video", fingerprint=5, frames=100)
        assert encode_video(m, cfg).matrix.shape == (8, 32)

    def test_deterministic(self, cfg):
        m = MediaRef("video", fingerprint=5, frames=100)
        np.testing.assert_array_equal(encode_video(m, cfg).matrix,
                                      encode_video(m, cfg).matrix)

    def test_single_frame_equals_frame0_stub(self):
        cfg = ModalityConfig(l_prime=1, video_frames=1, video_dim=16,
                             image_len=1, image_dim=16)
        m = MediaRef("video", fingerprint=77, frames=10)
        out = encode_video(m, cfg)
        frame0 = MediaRef("image",
                          fingerprint=frame_fingerprint(m.fingerprint, 0))
        expected = stub_encode(frame0, cfg)
        np.testing.assert_array_equal(out.matrix, expected.matrix)


def test_fingerprint_pure_function_of_bytes(tmp_path):
    assert fingerprint_bytes(b"abc") == fingerprint_bytes(b"abc")
    assert fingerprint_bytes(b"abc") != fingerprint_bytes(b"abd")
    p = tmp_path / "x.bin"
    p.write_bytes(b"hello")
    ref = MediaRef.from_path("image", str(p))
    assert ref.fingerprint == fingerprint_bytes(b"hello")
    # nonexistent path: fingerprint of the path text itself
    virt = MediaRef.from_path("image", "no/such/file")
    assert virt.fingerprint == fingerprint_bytes(b"no/such/file")
