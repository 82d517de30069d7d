"""The package's records.  Descriptors, factor entries and ideal sets are
immutable named tuples: equal, and hashed alike, when their fields are,
with their defaults and their field-by-field reprs.  Chain contexts
(powers and u-extension) and factor data compute each cached member
once per instance."""

import pytest

from constacodes import enumerator as en
from constacodes.ambient import IdealSet
from constacodes.enumerator import CodeDescriptor, IdealDescriptor
from constacodes.factorizer import FactorEntry, build_factor_data
from constacodes.params import Params

RECORDS = [
    pytest.param(IdealDescriptor, (1, 5, 2, 3, (1,)),
                 "IdealDescriptor(factor=1, family=5, s=2, t=3, h=(1,))", id="IdealDescriptor"),
    pytest.param(CodeDescriptor, ((IdealDescriptor(2, 1, 0),),),
                 "CodeDescriptor(components=(IdealDescriptor(factor=2, family=1, s=0, t=None, h=()),))",
                 id="CodeDescriptor"),
    pytest.param(FactorEntry, ((1, 1), 1), "FactorEntry(f=(1, 1), degree=1)", id="FactorEntry"),
    pytest.param(IdealSet, ((3, 5),), "IdealSet(basis=(3, 5))", id="IdealSet"),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS)
def test_record_is_immutable(cls, fields, text):
    record = cls(*fields)
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


@pytest.mark.parametrize("cls, fields, text", RECORDS)
def test_record_equality_and_hash_follow_fields(cls, fields, text):
    a, b = cls(*fields), cls(*fields)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    other = cls(*fields[:-1], ())
    assert other != a


@pytest.mark.parametrize("cls, fields, text", RECORDS)
def test_record_repr(cls, fields, text):
    assert repr(cls(*fields)) == text


def test_ideal_descriptor_defaults():
    desc = IdealDescriptor(1, 3, 4)
    assert (desc.t, desc.h) == (None, ())
    assert desc == IdealDescriptor(factor=1, family=3, s=4, t=None, h=())
    assert desc._replace(h=(1,)).h == (1,) and desc.h == ()


@pytest.fixture(scope="module")
def point():
    params = Params(1, 7, 2, 2, 1, 1)
    fd = build_factor_data(params)
    return fd, en.chain_contexts(params, fd)


def test_packed_pows_computed_once_per_context(point):
    _, ctxs = point
    first = [ctx.packed_pows for ctx in ctxs]
    assert all(ctx.packed_pows is pows for ctx, pows in zip(ctxs, first))
    assert first[0] is not first[1]


def test_u_extension_computed_once_per_context(point):
    _, ctxs = point
    for name in ("u_squared", "u_root"):
        first = [getattr(ctx, name) for ctx in ctxs]
        assert all(getattr(ctx, name) is value for ctx, value in zip(ctxs, first))
        assert first[0] is not first[1]


def test_idempotents_computed_once_per_factor_data(point):
    fd, _ = point
    eps = fd.idempotents
    assert fd.idempotents is eps
    again = build_factor_data(fd.params)
    assert again.idempotents is not eps and again.idempotents == eps


def test_cofactors_computed_once_per_factor_data(point):
    fd, _ = point
    cofactors = fd.cofactors
    assert fd.cofactors is cofactors
    again = build_factor_data(fd.params)
    assert again.cofactors is not cofactors and again.cofactors == cofactors
