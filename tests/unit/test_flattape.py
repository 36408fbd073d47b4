"""Flat constraint-tape encode/decode.

The word tape (:mod:`repro.analysis.shardgen` encoding) is what the
session caches per function and replays into the solver, so its
round-trip must be exact on every edge case — empty tapes, extreme
ids, truncated buffers.
"""

from array import array

import pytest

from repro.analysis.andersen import (
    OP_COPY,
    OP_GEP,
    OP_ICALL,
    OP_LOAD,
    OP_PTS,
    OP_STORE,
)
from repro.analysis.shardgen import (
    GEP_NONE,
    ShardResult,
    decode_words,
    encode_ops,
    iter_ops,
)

#: Largest shard-local id the tape must carry losslessly (int64 max).
MAX_ID = 2**63 - 1


class TestEncodeDecodeRoundTrip:
    def test_empty_tape(self):
        words = encode_ops([])
        assert len(words) == 0
        assert decode_words(words) == []

    def test_single_op(self):
        ops = [(OP_COPY, 3, 4)]
        assert decode_words(encode_ops(ops)) == ops

    def test_every_op_shape(self):
        ops = [
            (OP_PTS, 0, 1),
            (OP_COPY, 1, 2),
            (OP_LOAD, 2, 3),
            (OP_STORE, 3, 4),
            (OP_GEP, 4, 5, 7),
            (OP_GEP, 5, 6, None),
            (OP_ICALL, 6, 99, (7, -1, 8), 9),
            (OP_ICALL, 7, 100, (), -1),
        ]
        assert decode_words(encode_ops(ops)) == ops

    def test_max_int64_ids(self):
        ops = [
            (OP_COPY, MAX_ID, MAX_ID),
            (OP_GEP, MAX_ID, 0, MAX_ID),
            (OP_ICALL, MAX_ID, MAX_ID, (MAX_ID,), MAX_ID),
        ]
        assert decode_words(encode_ops(ops)) == ops

    def test_gep_none_sentinel_is_distinct(self):
        # GEP_NONE only ever encodes a None offset; a real offset of
        # the same magnitude cannot arise (field indices are small
        # non-negative ints), and None round-trips exactly.
        ops = [(OP_GEP, 1, 2, None)]
        words = encode_ops(ops)
        assert words[3] == GEP_NONE
        assert decode_words(words) == ops

    def test_iter_ops_is_lazy_and_equivalent(self):
        ops = [(OP_PTS, 1, 2), (OP_ICALL, 3, 4, (5,), 6)]
        words = encode_ops(ops)
        iterator = iter_ops(words)
        assert next(iterator) == ops[0]
        assert list(iterator) == ops[1:]

    def test_shard_result_ops_property_decodes_words(self):
        ops = [(OP_PTS, 0, 1), (OP_GEP, 1, 2, None)]
        shard = ShardResult(words=encode_ops(ops))
        assert shard.ops == ops


class TestTruncationRejection:
    def test_truncated_binary_op(self):
        words = encode_ops([(OP_COPY, 1, 2)])
        with pytest.raises(ValueError, match="truncated"):
            decode_words(words[:-1])

    def test_truncated_gep(self):
        words = encode_ops([(OP_GEP, 1, 2, 3)])
        with pytest.raises(ValueError, match="truncated"):
            decode_words(words[:-1])

    def test_truncated_icall_header(self):
        words = encode_ops([(OP_ICALL, 1, 2, (3,), 4)])
        with pytest.raises(ValueError, match="truncated"):
            decode_words(words[:3])

    def test_truncated_icall_args(self):
        words = encode_ops([(OP_ICALL, 1, 2, (3, 4), 5)])
        with pytest.raises(ValueError, match="truncated"):
            decode_words(words[:-2])

    def test_negative_icall_arg_count_rejected(self):
        words = array("q", [OP_ICALL, 1, 2, -3, 0, 0])
        with pytest.raises(ValueError, match="truncated"):
            decode_words(words)

    def test_unknown_tag_rejected(self):
        words = array("q", [424242, 0, 0])
        with pytest.raises(ValueError, match="unknown op tag"):
            decode_words(words)
