import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmtune.errors import InvalidId
from mmtune.tokenizer import BOS, EOS, N_IDS, PAD, SEP, Vocab


@pytest.fixture
def vocab():
    return Vocab()


def test_specials_are_dense(vocab):
    assert (PAD, BOS, EOS, SEP) == (0, 1, 2, 3)
    assert N_IDS == 260


def test_encode_ab(vocab):
    assert vocab.encode("ab") == [101, 102]


def test_encode_empty(vocab):
    assert vocab.encode("") == []


def test_decode_drops_specials(vocab):
    assert vocab.decode([BOS, 101, EOS]) == "a"
    assert vocab.decode([PAD, SEP]) == ""


def test_decode_out_of_range(vocab):
    with pytest.raises(InvalidId):
        vocab.decode([9999])


def test_decode_invalid_utf8(vocab):
    # 0xFF is never valid UTF-8
    assert vocab.decode([0xFF + 4]) == "\ufffd"


@settings(max_examples=200, deadline=None)
@given(st.text())
def test_roundtrip_identity(s):
    v = Vocab()
    assert v.decode(v.encode(s)) == s


@settings(max_examples=100, deadline=None)
@given(st.text())
def test_encode_length_is_byte_length(s):
    assert len(Vocab().encode(s)) == len(s.encode("utf-8"))
