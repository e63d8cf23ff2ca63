"""Property tests (hypothesis) for the serving wire codec.

Every matrix crosses the NDJSON protocol as base64 of its C-order
little-endian bytes.  So for any float64 or float32 matrix, NaN, ±inf,
−0.0 and subnormals included, ``json.dumps`` → ``json.loads`` → decode
must give back the same bytes, dtype and shape, and the line must be
strict JSON.  Any memory layout or byte order must encode to the same
string as its C-order little-endian copy.

Only the tier-1 suite collects this module; the smoke jobs run without
hypothesis.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.data.features import ViewSet
from repro.serving import (
    EmbedRequest,
    EmbedResponse,
    request_from_wire,
    request_to_wire,
    response_from_wire,
    response_to_wire,
)

# Casting a float32 signalling NaN to float64 quiets it, and numpy warns.
pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered in cast:RuntimeWarning")

#: Bit patterns no float strategy is sure to draw: a signalling NaN, a
#: negative NaN with a payload, the smallest subnormal and −0.0.
_SPECIAL_F8 = np.array([0x7FF0000000000001, 0xFFF8000000000123,
                        0x0000000000000001, 0x8000000000000000],
                       dtype=np.uint64).view(np.float64).reshape(2, 2)
_SPECIAL_F4 = np.array([0x7F800001, 0xFFC00123, 0x00000001, 0x80000000],
                       dtype=np.uint32).view(np.float32).reshape(2, 2)
_INFINITIES = np.array([[np.inf, -np.inf, np.nan, -0.0]])


@st.composite
def _matrices(draw):
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    shape = (draw(st.integers(0, 6)), draw(st.integers(1, 6)))
    width = 8 * np.dtype(dtype).itemsize
    return draw(arrays(dtype, shape, elements=st.floats(width=width)))


def _request_line(matrix: np.ndarray) -> str:
    views = ViewSet(names=("m",), matrices=[matrix])
    return json.dumps(request_to_wire(EmbedRequest(views)), allow_nan=False)


def _response_line(matrix: np.ndarray) -> str:
    response = EmbedResponse(
        request_id=1, name="", embeddings=matrix, bucket_id="n8/d1/model",
        n_regions=len(matrix), batch_size=1, padded=False,
        padding_waste=0.0, plan_event="hit", wait_seconds=0.0,
        compute_seconds=0.0)
    return json.dumps(response_to_wire(response), allow_nan=False)


def _assert_same_bytes(decoded: np.ndarray, expected: np.ndarray) -> None:
    assert decoded.dtype == expected.dtype
    assert decoded.shape == expected.shape
    assert decoded.tobytes() == expected.tobytes()
    assert decoded.flags.writeable


@given(_matrices())
@example(_SPECIAL_F8)
@example(_SPECIAL_F4)
@example(_INFINITIES)
@example(_INFINITIES.astype(np.float32))
def test_request_matrix_round_trips_bitwise_as_float64(matrix):
    decoded = request_from_wire(json.loads(_request_line(matrix)))
    _assert_same_bytes(decoded.views.matrices[0], matrix.astype("<f8"))


@given(_matrices())
@example(_SPECIAL_F8)
@example(_SPECIAL_F4)
@example(_INFINITIES)
@example(_INFINITIES.astype(np.float32))
def test_response_embeddings_round_trip_bitwise_in_their_dtype(matrix):
    decoded = response_from_wire(json.loads(_response_line(matrix)))
    _assert_same_bytes(decoded.embeddings, matrix)


def _layouts(matrix: np.ndarray) -> dict:
    strided = np.empty((matrix.shape[0], 2 * matrix.shape[1]), matrix.dtype)
    strided[:, ::2] = matrix
    big = matrix.astype(matrix.dtype.newbyteorder(">"))
    return {"fortran": np.asfortranarray(matrix),
            "strided": strided[:, ::2],
            "big_endian": big,
            "big_endian_fortran": np.asfortranarray(big)}


@given(_matrices())
@example(_SPECIAL_F8)
@example(_SPECIAL_F4)
def test_any_layout_encodes_like_its_c_order_little_endian_copy(matrix):
    canonical = np.ascontiguousarray(matrix,
                                     dtype=matrix.dtype.newbyteorder("<"))
    for layout, variant in _layouts(matrix).items():
        assert _request_line(variant) == _request_line(canonical), layout
        assert _response_line(variant) == _response_line(canonical), layout
