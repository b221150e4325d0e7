"""Property tests of the two parsers that read untrusted files: any input
yields a result or the documented error type, and what the writers write
reads back unchanged. Derandomized, with fixed example counts, so every run
tries the same inputs."""

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from catunet import data_io as dio
from catunet.model import (CatUNetConfig, CatUNetModel, CheckpointError, build, load_checkpoint,
                           save_checkpoint)
from catunet.rng import Rng


def fuzz(max_examples):
    return settings(derandomize=True, max_examples=max_examples, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


SMALL = CatUNetConfig(input_channels=1, input_size=8, depth=1, base_channels=2)


@pytest.fixture(scope="module")
def valid_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("valid") / "m.catu"
    save_checkpoint(build(SMALL, Rng(0)), str(path))
    return path.read_bytes()


def loads_or_raises_checkpoint_error(path, data: bytes):
    path.write_bytes(data)
    try:
        model = load_checkpoint(str(path))
    except CheckpointError:
        return
    assert isinstance(model, CatUNetModel)


@st.composite
def mutations(draw, raw: bytes):
    """Up to four byte edits (overwrite, cut, insert), most of them in the
    header and the first parameter entry, where the lengths live."""
    out = bytearray(raw)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.one_of(st.integers(0, 160), st.integers(0, len(out))))
        kind = draw(st.sampled_from(("overwrite", "cut", "insert")))
        if kind == "overwrite" and pos < len(out):
            out[pos] = draw(st.integers(0, 255))
        elif kind == "cut":
            del out[pos:pos + draw(st.integers(1, 64))]
        else:
            out[pos:pos] = draw(st.binary(min_size=1, max_size=8))
    return bytes(out)


JSON_VALUES = st.one_of(st.integers(-2, 2 ** 40), st.floats(), st.booleans(),
                        st.none(), st.text(max_size=4), st.lists(st.integers(0, 4), max_size=2))
CONFIG_KEYS = ("input_channels", "input_size", "depth", "base_channels", "dropout_rate",
               "kernel_size", "channel_growth", "output_channels", "other")


class TestLoadCheckpoint:
    @fuzz(300)
    @given(data=st.binary(max_size=256))
    def test_any_bytes(self, tmp_path, data):
        loads_or_raises_checkpoint_error(tmp_path / "m.catu", data)

    @fuzz(300)
    @given(data=st.data())
    def test_mutated_checkpoint(self, tmp_path, valid_checkpoint, data):
        raw = data.draw(mutations(valid_checkpoint))
        loads_or_raises_checkpoint_error(tmp_path / "m.catu", raw)

    @fuzz(300)
    @given(fields=st.dictionaries(st.sampled_from(CONFIG_KEYS), JSON_VALUES))
    def test_any_config_block(self, tmp_path, valid_checkpoint, fields):
        # the valid file's parameters behind a header whose fields vary
        (cfg_len,) = struct.unpack("<I", valid_checkpoint[8:12])
        cfg = json.loads(valid_checkpoint[12:12 + cfg_len])
        block = json.dumps(dict(cfg, **fields)).encode("utf-8")
        raw = (valid_checkpoint[:8] + struct.pack("<I", len(block)) + block
               + valid_checkpoint[12 + cfg_len:])
        loads_or_raises_checkpoint_error(tmp_path / "m.catu", raw)

    @fuzz(40)
    @given(depth=st.integers(1, 2), base=st.integers(1, 3), channels=st.integers(1, 2),
           scale=st.integers(1, 3), rate=st.floats(0, 1, exclude_max=True),
           seed=st.integers(0, 2 ** 32 - 1), value=st.floats(width=32, allow_nan=False,
                                                            allow_infinity=False))
    def test_roundtrip(self, tmp_path, depth, base, channels, scale, rate, seed, value):
        cfg = CatUNetConfig(input_channels=channels, input_size=scale * 2 ** depth, depth=depth,
                            base_channels=base, dropout_rate=rate)
        net = build(cfg, Rng(seed))
        net.parameters["out_b"].data[0] = value
        path = str(tmp_path / "m.catu")
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert loaded.config == cfg
        assert list(loaded.parameters) == list(net.parameters)
        for name, p in net.parameters.items():
            assert loaded.parameters[name].data.tobytes() == p.data.tobytes(), name


def reads_or_raises_value_error(path, data: bytes):
    path.write_bytes(data)
    try:
        raster = dio.read_pgm(str(path))
    except ValueError:
        return
    assert raster.dtype == np.uint8 and raster.ndim == 2 and raster.size > 0


@st.composite
def pgm_like(draw):
    """A P5-ish header (magic, width, height, maxval, maybe a comment) over
    a short raster, so most inputs get past the magic."""
    number = st.one_of(st.integers(-2, 300).map(lambda n: str(n).encode()), st.binary(max_size=3))
    head = [draw(st.sampled_from((b"P5", b"P2", b"P6", b"P"))),
            *(draw(number) for _ in range(3))]
    sep = st.sampled_from((b" ", b"\n", b"\t", b"\r\n", b" # note\n", b""))
    text = b"".join(tok + draw(sep) for tok in head)
    return text + draw(st.binary(max_size=96))


class TestReadPgm:
    @fuzz(300)
    @given(data=st.binary(max_size=128))
    def test_any_bytes(self, tmp_path, data):
        reads_or_raises_value_error(tmp_path / "a.pgm", data)

    @fuzz(500)
    @given(data=pgm_like())
    def test_header_like_bytes(self, tmp_path, data):
        reads_or_raises_value_error(tmp_path / "a.pgm", data)

    @fuzz(100)
    @given(image=arrays(np.uint8, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=16)))
    def test_roundtrip(self, tmp_path, image):
        path = str(tmp_path / "a.pgm")
        dio.write_pgm(path, image)
        np.testing.assert_array_equal(dio.read_pgm(path), image)
