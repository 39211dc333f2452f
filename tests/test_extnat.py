import operator

import pytest

from semidual.extnat import NEG_INF, POS_INF, ExtNat, fin, parse_point


def test_total_order():
    points = [NEG_INF, fin(0), fin(1), fin(7), POS_INF]
    for i in range(len(points)):
        for j in range(len(points)):
            assert (points[i] < points[j]) == (i < j)
    assert max(fin(2), fin(5)) == fin(5)
    assert min(NEG_INF, fin(0)) == NEG_INF
    assert max(POS_INF, fin(9)) == POS_INF


def test_points_compare_by_fields_and_not_with_ints():
    points = [NEG_INF, fin(0), fin(1), fin(7), POS_INF]
    for i, p in enumerate(points):
        for j, q in enumerate(points):
            assert (p <= q, p > q, p >= q) == (i <= j, i > j, i >= j)
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(fin(1), 2)
        with pytest.raises(TypeError):
            compare(2, fin(1))


def test_parse_and_format():
    assert parse_point("-inf") == NEG_INF
    assert parse_point("+inf") == POS_INF
    assert parse_point("4") == fin(4)
    assert str(NEG_INF) == "-inf"
    assert str(POS_INF) == "+inf"
    assert str(fin(12)) == "12"
    for text in ("4.5", "inf", " 4", "+4", "\u0664"):
        with pytest.raises(ValueError):
            parse_point(text)


def test_succ():
    assert NEG_INF.succ() == fin(0)
    assert fin(3).succ() == fin(4)
    assert POS_INF.succ() == POS_INF


def test_invalid_points():
    with pytest.raises(ValueError):
        fin(-1)
    with pytest.raises(ValueError):
        ExtNat(5)
    with pytest.raises(ValueError, match="infinite points carry no number"):
        ExtNat(POS_INF.kind, 5)


@pytest.mark.parametrize("n", [True, False, 1.0, 2.5])
def test_bool_and_float_are_no_naturals(n):
    with pytest.raises(ValueError, match="finite point needs a natural number"):
        fin(n)
