import numpy as np
import pytest

from mmtune.encoders import (MediaRef, ModalityConfig, encode,
                             fingerprint_bytes, frame_fingerprint,
                             load_features, sample_frames, save_features,
                             stub_encode)
from mmtune.errors import BadMagic, SchemaError, TruncatedFile, UnknownKind


@pytest.fixture
def cfg():
    return ModalityConfig(l_prime=4, image_len=16, image_dim=32, video_frames=8,
                          video_dim=32, audio_len=24, audio_dim=32)


class TestStubEncode:
    def test_deterministic(self, cfg):
        m = MediaRef("image", fingerprint=12345)
        a = stub_encode(m, cfg)
        b = stub_encode(m, cfg)
        np.testing.assert_array_equal(a, b)

    def test_shape_contract(self, cfg):
        m = MediaRef("image", fingerprint=1)
        assert stub_encode(m, cfg).shape == (16, 32)
        assert stub_encode(MediaRef("audio", fingerprint=1), cfg).shape == (24, 32)

    def test_values_in_range(self, cfg):
        m = stub_encode(MediaRef("image", fingerprint=7), cfg)
        assert m.min() >= -1.0 and m.max() <= 1.0

    def test_distinct_fingerprints_differ(self, cfg):
        rng = np.random.default_rng(0)
        for _ in range(100):
            f1, f2 = rng.integers(0, 2 ** 63, size=2)
            if f1 == f2:
                continue
            a = stub_encode(MediaRef("image", fingerprint=int(f1)), cfg)
            b = stub_encode(MediaRef("image", fingerprint=int(f2)), cfg)
            assert np.mean(a != b) >= 0.99

    def test_unknown_kind(self):
        with pytest.raises(UnknownKind):
            MediaRef("text", fingerprint=1)


class TestFeatureFiles:
    def test_roundtrip_bitwise(self, tmp_path, cfg):
        feats = stub_encode(MediaRef("audio", fingerprint=99), cfg)
        feats = feats.astype(np.float32).astype(np.float64)
        p = str(tmp_path / "a.mcwf")
        save_features(p, "audio", feats)
        kind, loaded = load_features(p)
        assert kind == "audio"
        np.testing.assert_array_equal(loaded, feats)

    def test_bad_magic(self, tmp_path, cfg):
        p = str(tmp_path / "b.mcwf")
        save_features(p, "image", stub_encode(MediaRef("image", fingerprint=1), cfg))
        raw = bytearray(open(p, "rb").read())
        raw[0] ^= 0xFF
        open(p, "wb").write(bytes(raw))
        with pytest.raises(BadMagic):
            load_features(p)

    def test_truncated(self, tmp_path):
        p = str(tmp_path / "c.mcwf")
        feats = np.zeros((16, 32))
        save_features(p, "image", feats)
        raw = open(p, "rb").read()
        open(p, "wb").write(raw[:4 + 13 + 10 * 4])  # header + 10 floats
        with pytest.raises(TruncatedFile):
            load_features(p)


    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value(self, tmp_path, value):
        p = str(tmp_path / "d.mcwf")
        feats = np.zeros((16, 32))
        feats[3, 7] = value
        save_features(p, "image", feats)
        with pytest.raises(SchemaError) as e:
            load_features(p)
        assert str(e.value) == f"{p}: feature values must be finite"


class TestEncodeFeatureFile:
    def test_reads_float64_of_saved_float32(self, tmp_path, cfg):
        feats = stub_encode(MediaRef("video", fingerprint=3), cfg)
        p = str(tmp_path / "v.mcwf")
        save_features(p, "video", feats)
        out = encode(MediaRef.from_path("video", p, frames=100), cfg)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, feats.astype(np.float32))

    @pytest.mark.parametrize("kind,rows,match", [("audio", 16, "audio"),
                                                 ("image", 15, r"\(15, 32\)")])
    def test_mismatch_with_media_or_config(self, tmp_path, cfg, kind, rows,
                                           match):
        p = str(tmp_path / "f.mcwf")
        save_features(p, kind, np.zeros((rows, 32)))
        with pytest.raises(SchemaError, match=match) as e:
            encode(MediaRef.from_path("image", p), cfg)
        assert str(e.value).startswith(p)

    def test_unknown_kind_byte(self, tmp_path, cfg):
        p = tmp_path / "f.mcwf"
        save_features(str(p), "image", np.zeros((16, 32)))
        raw = bytearray(p.read_bytes())
        raw[8] = 3  # after the magic and the u32 version
        p.write_bytes(bytes(raw))
        with pytest.raises(UnknownKind, match="kind code 3"):
            encode(MediaRef.from_path("image", str(p)), cfg)


class TestEncode:
    def test_a_feature_file_rewritten_in_place_is_read_again(self, tmp_path,
                                                             cfg):
        p = str(tmp_path / "a.mcwf")
        save_features(p, "audio", np.full((24, 32), 0.5))
        ref = MediaRef.from_path("audio", p)
        np.testing.assert_array_equal(encode(ref, cfg), 0.5)
        save_features(p, "audio", np.full((24, 32), -0.25))
        np.testing.assert_array_equal(encode(ref, cfg), -0.25)

    def test_a_bad_feature_file_or_frame_count_raises(self, tmp_path, cfg):
        p = str(tmp_path / "f.mcwf")
        save_features(p, "image", np.zeros((15, 32)))
        with pytest.raises(SchemaError):
            encode(MediaRef.from_path("image", p), cfg)
        # and a stub that raises, as sample_frames does for -1 frames
        with pytest.raises(ValueError, match="frame_count"):
            encode(MediaRef("video", fingerprint=1, frames=-1), cfg)


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
        assert stub_encode(m, cfg).shape == (8, 32)

    def test_deterministic(self, cfg):
        m = MediaRef("video", fingerprint=5, frames=100)
        np.testing.assert_array_equal(stub_encode(m, cfg),
                                      stub_encode(m, cfg))

    def test_no_frame_count_samples_32_raw_frames(self, cfg):
        got = stub_encode(MediaRef("video", fingerprint=5), cfg)
        np.testing.assert_array_equal(
            got, stub_encode(MediaRef("video", fingerprint=5, frames=32), cfg))
        assert not np.array_equal(
            got, stub_encode(MediaRef("video", fingerprint=5, frames=40), cfg))

    def test_single_frame_equals_frame0_stub(self):
        cfg = ModalityConfig(l_prime=1, video_frames=1, video_dim=16,
                             image_len=1, image_dim=16)
        m = MediaRef("video", fingerprint=77, frames=10)
        out = stub_encode(m, cfg)
        frame0 = MediaRef("image",
                          fingerprint=frame_fingerprint(m.fingerprint, 0))
        expected = stub_encode(frame0, cfg)
        np.testing.assert_array_equal(out, expected)


def seeded_uniform_oracle(media, cfg):
    """The stub features as they were first drawn: one uniform(-1, 1) call
    per feature block on a default_rng seeded with SeedSequence([seed]), one
    block per sampled video frame, stacked."""
    def draw(seed, shape):
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        return rng.uniform(-1.0, 1.0, size=shape)

    if media.kind != "video":
        return draw(media.fingerprint, (cfg.length(media.kind),
                                        cfg.dim(media.kind)))
    frames = sample_frames(media.frames or cfg.source_frames_default,
                           cfg.video_frames)
    return np.concatenate([draw(frame_fingerprint(media.fingerprint, i),
                                (1, cfg.video_dim)) for i in frames])


def test_stub_draws_match_the_seeded_uniform_oracle(cfg):
    # fingerprints span the whole 64-bit range blake2b gives, with small
    # seeds too, and videos of 1 to 70 frames
    rng = np.random.default_rng(28)
    seeds = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1] + [
        int(s) for s in rng.integers(0, 2 ** 64, size=95, dtype=np.uint64)]
    for j, seed in enumerate(seeds):
        for kind in ("image", "video", "audio"):
            media = MediaRef(kind, seed, frames=1 + j % 70)
            got = encode(media, cfg)
            assert got.tobytes() == seeded_uniform_oracle(media, cfg).tobytes()


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
