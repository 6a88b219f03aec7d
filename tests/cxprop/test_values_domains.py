"""Tests (including property-based tests) for abstract values and domains."""

import pytest
from hypothesis import given, strategies as st

from repro.cminor import cint
from repro.cminor import typesys as ty
from repro.cxprop import values as av
from repro.cxprop.domains import ConstantDomain, IntervalDomain, ValueSetDomain, \
    make_domain
from repro.cxprop.values import MemoryTarget, Value


def ints(lo=-1000, hi=1000):
    return st.integers(lo, hi)


@st.composite
def int_values(draw):
    a = draw(ints())
    b = draw(ints())
    return Value.of_range(min(a, b), max(a, b))


class TestValueConstruction:
    def test_constant_detection(self):
        assert Value.of_int(7).as_constant() == 7
        assert Value.of_range(1, 2).as_constant() is None

    def test_of_type_for_integers(self):
        value = Value.of_type(ty.UINT8)
        assert (value.lo, value.hi) == (0, 255)
        assert Value.of_type(ty.BOOL).hi == 1

    def test_of_type_for_pointers(self):
        value = Value.of_type(ty.PointerType(ty.UINT8))
        assert value.is_pointer and value.may_be_null

    def test_null_and_known_pointers(self):
        target = MemoryTarget("global", "buffer", 8)
        pointer = Value.pointer_to(target, 0, 4)
        assert pointer.is_definitely_nonzero()
        assert Value.null_pointer().is_definitely_zero()

    def test_clamp_to_type(self):
        assert Value.of_range(0, 1000).clamp_to_type(ty.UINT8).hi == 255
        inside = Value.of_range(3, 7).clamp_to_type(ty.UINT8)
        assert (inside.lo, inside.hi) == (3, 7)
        assert Value.of_int(300).clamp_to_type(ty.UINT8) == Value.of_int(44)
        assert Value.of_int(40000).clamp_to_type(ty.INT16) == \
            Value.of_int(-25536)


class TestJoin:
    @given(int_values(), int_values())
    def test_join_is_an_upper_bound(self, left, right):
        joined = left.join(right)
        assert joined.lo <= left.lo and joined.hi >= left.hi
        assert joined.lo <= right.lo and joined.hi >= right.hi

    @given(int_values(), int_values())
    def test_join_is_commutative(self, left, right):
        assert left.join(right) == right.join(left)

    @given(int_values())
    def test_join_is_idempotent(self, value):
        assert value.join(value) == value

    @given(int_values(), int_values(), int_values())
    def test_join_is_associative(self, a, b, c):
        assert a.join(b).join(c) == a.join(b.join(c))

    def test_join_with_bottom_and_top(self):
        v = Value.of_int(3)
        assert Value.bottom().join(v) == v
        assert Value.top().join(v).is_top

    def test_pointer_join_unions_targets(self):
        a = Value.pointer_to(MemoryTarget("global", "a", 4))
        b = Value.pointer_to(MemoryTarget("global", "b", 8))
        joined = a.join(b)
        assert len(joined.targets) == 2 and not joined.may_be_null

    def test_mixed_int_pointer_join_is_top(self):
        assert Value.of_int(1).join(Value.any_pointer()).is_top


class TestArithmetic:
    @given(ints(), ints(), ints(), ints())
    def test_add_is_sound(self, a_lo, a_hi, b_lo, b_hi):
        a = Value.of_range(min(a_lo, a_hi), max(a_lo, a_hi))
        b = Value.of_range(min(b_lo, b_hi), max(b_lo, b_hi))
        result = av.add_values(a, b)
        # Every concrete sum must be inside the abstract result.
        for x in (a.lo, a.hi):
            for y in (b.lo, b.hi):
                assert result.lo <= x + y <= result.hi

    @given(ints(), ints())
    def test_sub_of_constants_is_exact(self, a, b):
        result = av.sub_values(Value.of_int(a), Value.of_int(b))
        assert result.as_constant() == a - b

    def test_mod_with_constant_modulus(self):
        result = av.mod_values(Value.of_range(0, 255), Value.of_int(8))
        assert (result.lo, result.hi) == (0, 7)

    def test_bitand_with_mask(self):
        result = av.bitand_values(Value.of_range(0, 255), Value.of_int(7))
        assert (result.lo, result.hi) == (0, 7)

    def test_division_by_zero_is_top(self):
        assert av.div_values(Value.of_int(4), Value.of_int(0)).is_top


#: cXprop's transfer function for each of ``cint``'s binary operators.
TRANSFER = {
    "+": av.add_values,
    "-": av.sub_values,
    "*": av.mul_values,
    "/": av.div_values,
    "%": av.mod_values,
    "&": av.bitand_values,
    "|": av.bitor_values,
    "^": av.bitxor_values,
    "<<": av.shift_left_values,
    ">>": av.shift_right_values,
}

INT16_VALUES = st.integers(ty.INT16.min_value, ty.INT16.max_value)


def contains(value, concrete):
    return value.is_top or value.lo <= concrete <= value.hi


class TestTransferSoundness:
    """An abstract result holds C's concrete result at every point it covers."""

    @pytest.mark.parametrize("op", sorted(cint.BINARY_OPS))
    @given(a=INT16_VALUES, b=INT16_VALUES, data=st.data())
    def test_operator_with_a_constant(self, op, a, b, data):
        if op in ("<<", ">>"):
            constant = data.draw(st.integers(0, 15))
        elif op in ("/", "%"):
            constant = data.draw(INT16_VALUES.filter(bool))
        else:
            constant = data.draw(INT16_VALUES)
        lo, hi = min(a, b), max(a, b)
        result = TRANSFER[op](Value.of_range(lo, hi), Value.of_int(constant))
        for point in (lo, (lo + hi) // 2, hi):
            assert contains(result, cint.BINARY_OPS[op](point, constant))

    @pytest.mark.parametrize("op", sorted(cint.COMPARISONS))
    @given(a=INT16_VALUES, b=INT16_VALUES, constant=INT16_VALUES)
    def test_comparison_with_a_constant(self, op, a, b, constant):
        lo, hi = min(a, b), max(a, b)
        result = av.compare_values(op, Value.of_range(lo, hi),
                                   Value.of_int(constant))
        for point in (lo, (lo + hi) // 2, hi):
            assert contains(result, cint.COMPARISONS[op](point, constant))


class TestComparisons:
    def test_disjoint_ranges_decide_comparisons(self):
        low = Value.of_range(0, 3)
        high = Value.of_range(10, 20)
        assert av.compare_values("<", low, high) == av.TRUE_VALUE
        assert av.compare_values(">=", low, high) == av.FALSE_VALUE
        assert av.compare_values("==", low, high) == av.FALSE_VALUE

    def test_overlapping_ranges_are_unknown(self):
        a = Value.of_range(0, 10)
        b = Value.of_range(5, 15)
        assert av.compare_values("<", a, b) == av.BOOL_VALUE

    def test_null_test_on_known_pointer(self):
        pointer = Value.pointer_to(MemoryTarget("global", "x", 2))
        assert av.compare_values("==", pointer, Value.of_int(0)) == av.FALSE_VALUE
        assert av.compare_values("!=", pointer, Value.of_int(0)) == av.TRUE_VALUE

    def test_truth_of(self):
        assert av.truth_of(Value.of_int(3)) is True
        assert av.truth_of(Value.of_int(0)) is False
        assert av.truth_of(Value.of_range(0, 1)) is None


class TestDomains:
    def test_make_domain(self):
        assert isinstance(make_domain("constant"), ConstantDomain)
        assert isinstance(make_domain("interval"), IntervalDomain)
        assert isinstance(make_domain("valueset"), ValueSetDomain)
        with pytest.raises(KeyError):
            make_domain("octagon")

    def test_constant_domain_drops_non_constants(self):
        domain = ConstantDomain()
        joined = domain.join(Value.of_int(1), Value.of_int(2))
        assert joined.as_constant() is None
        assert joined.range_width() > 100

    def test_interval_domain_keeps_ranges(self):
        domain = IntervalDomain()
        joined = domain.join(Value.of_int(1), Value.of_int(2))
        assert (joined.lo, joined.hi) == (1, 2)

    def test_interval_widening_jumps_to_type_limits(self):
        domain = IntervalDomain()
        widened = domain.widen(Value.of_range(0, 3), Value.of_range(0, 4), ty.UINT8)
        assert widened.hi == 255
        assert widened.lo == 0

    def test_widening_is_stable_when_nothing_changed(self):
        for domain in (ConstantDomain(), IntervalDomain(), ValueSetDomain()):
            value = Value.of_range(2, 5)
            assert domain.widen(value, value, ty.UINT8) == value

    @given(int_values(), int_values())
    def test_domain_joins_over_approximate_plain_join(self, left, right):
        plain = left.join(right)
        for domain in (ConstantDomain(), IntervalDomain(), ValueSetDomain()):
            joined = domain.join(left, right)
            assert joined.lo <= plain.lo and joined.hi >= plain.hi
