import math

import numpy as np
import pytest

from setint.errors import InvalidArgumentError
from setint.spaces import (
    SpaceDescriptor,
    c1_from,
    cdist_metric,
    hilbert_c1,
    infratype_from_json,
    l1,
    l2,
    linf,
    norm,
    norms,
    space_from_json,
    space_to_json,
)


def test_norm_values():
    x = np.array([3.0, -4.0])
    assert norm(l1(2), x) == 7.0
    assert norm(l2(2), x) == 5.0
    assert norm(linf(2), x) == 4.0


def test_norms_vectorized_matches_scalar():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((50, 3))
    for space in (l1(3), l2(3), linf(3)):
        vec = norms(space, m)
        assert vec.shape == (50,)
        for row, v in zip(m, vec):
            assert norm(space, row) == pytest.approx(v, abs=1e-15)


def test_l2_norms_past_the_square_range_are_scaled_and_others_keep_their_bits(recwarn):
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-150, 150, (50, 1))
    want = np.sqrt((rows * rows).sum(axis=1))
    far = np.array([[3e200, -4e200, 0.0], [-1e160, 0.0, 0.0], [1.7e308, 1.7e308, 0.0]])
    got = norms(l2(3), np.concatenate([rows, far]))
    assert np.array_equal(got[:50], want)
    assert got[50] == pytest.approx(5e200, rel=1e-15)
    assert got[51] == 1e160
    assert got[52] == math.inf  # the norm itself passes the float range
    assert norm(l2(2), [-1e160, 1e160]) == pytest.approx(math.sqrt(2) * 1e160, rel=1e-15)
    assert not recwarn.list


def test_l2_norms_below_the_normal_square_range_are_scaled_and_others_keep_their_bits(recwarn):
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((50, 2)) * 10.0 ** rng.integers(-150, 150, (50, 1))
    want = np.sqrt((rows * rows).sum(axis=1))
    tiny = np.array([[1e-170, 0.0], [3e-160, 4e-160], [0.0, -0.0], [5e-324, 0.0]])
    got = norms(l2(2), np.concatenate([rows, tiny]))
    assert np.array_equal(got[:50], want)
    assert got[50] == 1e-170  # its square rounds to 0
    assert abs(got[51] - math.hypot(3e-160, 4e-160)) <= math.ulp(got[51])
    assert got[52] == 0.0
    assert got[53] == 5e-324
    assert not recwarn.list


def test_cdist_metric_names():
    assert cdist_metric(l1(2)) == "cityblock"
    assert cdist_metric(l2(2)) == "euclidean"
    assert cdist_metric(linf(2)) == "chebyshev"


def test_descriptor_validation():
    with pytest.raises(InvalidArgumentError):
        SpaceDescriptor(0, "l2")
    with pytest.raises(InvalidArgumentError):
        SpaceDescriptor(2, "l3")


def test_c1_hilbert():
    # 2 * 1 / (2**(1/2) - 1) for exponent 2, constant 1
    want = 2.0 / (math.sqrt(2.0) - 1.0)
    assert hilbert_c1() == pytest.approx(want, rel=1e-15)
    assert hilbert_c1() == pytest.approx(4.82842712474619, rel=1e-12)
    assert c1_from(2.0, 1.0) == hilbert_c1()


def test_c1_monotone_in_c():
    assert c1_from(2.0, 2.0) == pytest.approx(2.0 * hilbert_c1(), rel=1e-15)


def test_space_json_roundtrip():
    for space in (l1(3), l2(4), linf(2), SpaceDescriptor(6, "l1")):
        obj = space_to_json(space)
        back = space_from_json(obj)
        assert back == space


def test_space_json_shape():
    assert space_to_json(l2(3)) == {"dim": 3, "norm": "l2"}
    assert space_to_json(l1(2)) == {"dim": 2, "norm": "l1"}


def test_a_declared_infratype_is_not_part_of_the_space():
    declared = space_from_json({"dim": 2, "norm": "l2", "infratype": [2, 1]})
    assert l2(2) == SpaceDescriptor(2, "l2") == declared
    assert hash(l2(2)) == hash(declared)
    assert infratype_from_json({"dim": 2, "norm": "l2", "infratype": [2, 1]}) == (2.0, 1.0)
    assert infratype_from_json({"dim": 2, "norm": "l2", "infratype": None}) is None
    assert infratype_from_json({"dim": 2, "norm": "l2"}) is None


#: Malformed declarations and the messages they are rejected with.
BAD_INFRATYPES = [
    pytest.param([2.5, 1.0], "infratype exponent must lie in (1, 2], got 2.5", id="exponent"),
    pytest.param([2.0, 0.0], "infratype constant must be positive, got 0.0", id="constant"),
    pytest.param("abc", "infratype must be [p, C] or null, got 'abc'", id="string"),
    pytest.param([2], "infratype must be [p, C] or null, got [2]", id="one-entry"),
]


@pytest.mark.parametrize("infratype, message", BAD_INFRATYPES)
def test_malformed_infratype_is_rejected(infratype, message):
    obj = {"dim": 2, "norm": "l2", "infratype": infratype}
    for read in (infratype_from_json, space_from_json):
        with pytest.raises(InvalidArgumentError) as exc:
            read(obj)
        assert str(exc.value) == message
