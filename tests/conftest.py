import json
import struct

import numpy as np
import pytest

from mmtune.alignment import assemble_prefix
from mmtune.cognitive import DecoderConfig, init_params
from mmtune.dataset import InstructionExample
from mmtune.encoders import ModalityConfig
from mmtune.tokenizer import Vocab


@pytest.fixture
def tiny_dec_cfg():
    return DecoderConfig(d_e=16, layers=1, heads=2, d_ff=32, max_seq_len=96)


@pytest.fixture
def tiny_mod_cfg():
    return ModalityConfig(l_prime=2, image_len=6, image_dim=5, video_frames=4,
                          video_dim=5, audio_len=6, audio_dim=5)


@pytest.fixture
def vocab():
    return Vocab()


@pytest.fixture
def tiny_params(tiny_dec_cfg, tiny_mod_cfg):
    return init_params(tiny_dec_cfg, tiny_mod_cfg, np.random.default_rng(42))


def make_examples(n, kinds=("image", "video", "audio"), source="synthetic"):
    words = ["red ball", "blue cube", "green tree", "tall tower", "small dog",
             "old boat", "new car", "wide river", "dark cave", "warm sun",
             "cold moon", "fast hawk", "slow snail", "soft cloud", "hard rock",
             "thin wire", "grey wolf", "pale star", "deep lake", "loud bell"]
    out = []
    for i in range(n):
        media = ({"kind": kinds[i % len(kinds)], "path": f"media-{i}"},)
        out.append(InstructionExample(id=f"ex{i}", media=media,
                                      instruction=f"name object {i}",
                                      response=words[i % len(words)],
                                      source=source))
    return out


def assemble_one(soft, instruction_ids, embed, response_ids=None):
    """assemble_prefix for a lone sequence, with its soft tokens given as a
    dict from kind to tensor."""
    return assemble_prefix(list(soft.values()), [(0, kind) for kind in soft],
                           [(instruction_ids, response_ids)], embed)


@pytest.fixture
def examples16():
    return make_examples(16)


def rewrite_ckpt_config(path, edit):
    """Apply `edit` to the config dict of the checkpoint at `path`, in place,
    leaving every other byte as it was."""
    raw = open(path, "rb").read()
    (n,) = struct.unpack_from("<I", raw, 8)
    cfg = json.loads(raw[12:12 + n])
    edit(cfg)
    block = json.dumps(cfg).encode("utf-8")
    open(path, "wb").write(raw[:8] + struct.pack("<I", len(block)) + block
                           + raw[12 + n:])


def set_version(path, version):
    """Write `version` into the version field of the checkpoint at `path`."""
    raw = bytearray(open(path, "rb").read())
    struct.pack_into("<I", raw, 4, version)
    open(path, "wb").write(bytes(raw))


def to_format_5(path):
    """Rewrite the checkpoint at `path` as format 5 wrote it: version 5, and
    Adam's beta1, beta2 and eps and the modality's source_frames_default in
    the header's configs."""
    def add_settings(cfg):
        cfg["train"].update(beta1=0.9, beta2=0.999, eps=1e-8)
        cfg["modality"]["source_frames_default"] = 32
    rewrite_ckpt_config(path, add_settings)
    set_version(path, 5)


def to_format_4(path):
    """Rewrite the checkpoint at `path` as format 4 wrote it: format 5's
    header, version 4, and the header's vocab block and decoder
    vocab_size."""
    def add_vocab(cfg):
        cfg["decoder"]["vocab_size"] = 260
        cfg["vocab"] = {"size": 260,
                        "specials": {"PAD": 0, "BOS": 1, "EOS": 2, "SEP": 3}}
    to_format_5(path)
    rewrite_ckpt_config(path, add_vocab)
    set_version(path, 4)


def bogus_decoder_key(cfg):
    cfg["decoder"]["bogus"] = 1


def drop_dataset_key(cfg):
    del cfg["dataset"]


def set_header(section, key, value):
    """A checkpoint header edit that sets one value of a config block."""
    def edit(cfg):
        cfg[section][key] = value
    return edit


def set_header_key(key, value):
    """A checkpoint header edit that sets one top-level header value."""
    def edit(cfg):
        cfg[key] = value
    return edit
