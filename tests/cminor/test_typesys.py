"""Tests (including property-based tests) for the CMinor type system."""

import pytest
from hypothesis import given, strategies as st

from repro.cminor import cint
from repro.cminor import typesys as ty


SCALAR_TYPES = [ty.BOOL, ty.CHAR, ty.INT8, ty.UINT8, ty.INT16, ty.UINT16,
                ty.INT32, ty.UINT32]
INT_TYPES = [ty.INT8, ty.UINT8, ty.INT16, ty.UINT16, ty.INT32, ty.UINT32]


class TestSizes:
    @pytest.mark.parametrize("ctype,size", [
        (ty.VOID, 0), (ty.BOOL, 1), (ty.CHAR, 1), (ty.INT8, 1), (ty.UINT8, 1),
        (ty.INT16, 2), (ty.UINT16, 2), (ty.INT32, 4), (ty.UINT32, 4),
    ])
    def test_scalar_sizes(self, ctype, size):
        assert ctype.sizeof() == size

    def test_pointer_size_follows_target_platform(self):
        pointer = ty.PointerType(ty.UINT32)
        assert pointer.sizeof(pointer_size=2) == 2
        assert pointer.sizeof(pointer_size=4) == 4

    def test_array_size(self):
        assert ty.ArrayType(ty.UINT16, 10).sizeof() == 20

    def test_struct_size_and_offsets(self):
        struct = ty.StructType("msg", (
            ty.StructField("addr", ty.UINT16),
            ty.StructField("type", ty.UINT8),
            ty.StructField("data", ty.ArrayType(ty.UINT8, 4)),
        ))
        assert struct.sizeof() == 7
        assert struct.field_offset("addr") == 0
        assert struct.field_offset("type") == 2
        assert struct.field_offset("data") == 3
        assert struct.field_type("data").length == 4

    def test_struct_unknown_field_raises(self):
        struct = ty.StructType("empty", ())
        with pytest.raises(KeyError):
            struct.field_offset("nothing")

    def test_invalid_integer_width_rejected(self):
        with pytest.raises(ValueError):
            ty.IntType(12, True)


class TestClassification:
    def test_predicates(self):
        assert ty.UINT8.is_integer() and ty.UINT8.is_scalar()
        assert ty.PointerType(ty.VOID).is_pointer()
        assert ty.ArrayType(ty.UINT8, 3).is_array()
        assert not ty.ArrayType(ty.UINT8, 3).is_scalar()
        assert ty.VOID.is_void()

    def test_array_decay(self):
        decayed = ty.ArrayType(ty.UINT16, 8).decay()
        assert decayed == ty.PointerType(ty.UINT16)

    def test_scalar_decay_is_identity(self):
        assert ty.UINT8.decay() == ty.UINT8

    def test_structural_equality(self):
        assert ty.PointerType(ty.UINT8) == ty.PointerType(ty.UINT8)
        assert ty.ArrayType(ty.UINT8, 4) != ty.ArrayType(ty.UINT8, 5)


class TestArithmeticConversions:
    def test_promotion_to_sixteen_bits(self):
        result = ty.common_arithmetic_type(ty.UINT8, ty.UINT8)
        assert result.bits == 16

    def test_wider_operand_wins(self):
        result = ty.common_arithmetic_type(ty.UINT8, ty.UINT32)
        assert result.bits == 32 and not result.signed

    def test_signedness_mixing(self):
        result = ty.common_arithmetic_type(ty.INT16, ty.UINT16)
        assert not result.signed

    def test_wrap_unsigned(self):
        assert cint.wrap_to(ty.UINT8, 256) == 0
        assert cint.wrap_to(ty.UINT8, 257) == 1

    def test_wrap_signed(self):
        assert cint.wrap_to(ty.INT8, 128) == -128
        assert cint.wrap_to(ty.INT8, -129) == 127

    def test_wrap_to_bool_and_pointer(self):
        assert cint.wrap_to(ty.BOOL, 7) == 1
        assert cint.wrap_to(ty.PointerType(ty.UINT8), 0x1FFFF) == 0xFFFF

    def test_integer_limits(self):
        assert ty.integer_limits(ty.UINT8) == (0, 255)
        assert ty.integer_limits(ty.INT16) == (-32768, 32767)
        assert ty.integer_limits(ty.BOOL) == (0, 1)


class TestAssignability:
    def test_integers_interconvert(self):
        assert ty.is_assignable(ty.UINT8, ty.UINT32)
        assert ty.is_assignable(ty.INT32, ty.BOOL)

    def test_array_decays_into_pointer(self):
        assert ty.is_assignable(ty.PointerType(ty.UINT8), ty.ArrayType(ty.UINT8, 4))

    def test_void_pointer_accepts_any_pointer(self):
        assert ty.is_assignable(ty.PointerType(ty.VOID), ty.PointerType(ty.UINT16))
        assert ty.is_assignable(ty.PointerType(ty.UINT16), ty.PointerType(ty.VOID))

    def test_incompatible_pointers_rejected(self):
        msg = ty.StructType("m", (ty.StructField("x", ty.UINT8),))
        assert not ty.is_assignable(ty.PointerType(msg), ty.PointerType(ty.UINT16))

    def test_struct_assignment_requires_same_struct(self):
        a = ty.StructType("a", (ty.StructField("x", ty.UINT8),))
        b = ty.StructType("b", (ty.StructField("x", ty.UINT8),))
        assert ty.is_assignable(a, a)
        assert not ty.is_assignable(a, b)

    def test_pointer_compatibility(self):
        assert ty.pointer_compatible(ty.PointerType(ty.UINT8), ty.PointerType(ty.CHAR))
        assert ty.pointer_compatible(ty.PointerType(ty.VOID), ty.PointerType(ty.UINT32))
        assert not ty.pointer_compatible(ty.PointerType(ty.UINT8),
                                         ty.PointerType(ty.UINT16))


class TestWrapProperties:
    @given(st.sampled_from(INT_TYPES), st.integers(-(1 << 40), 1 << 40))
    def test_wrap_is_always_in_range(self, ctype, value):
        wrapped = cint.wrap_to(ctype, value)
        assert ctype.min_value <= wrapped <= ctype.max_value

    @given(st.sampled_from(INT_TYPES), st.integers(-(1 << 40), 1 << 40))
    def test_wrap_is_idempotent(self, ctype, value):
        wrapped = cint.wrap_to(ctype, value)
        assert cint.wrap_to(ctype, wrapped) == wrapped

    @given(st.sampled_from(INT_TYPES), st.integers(-(1 << 40), 1 << 40))
    def test_wrap_preserves_congruence(self, ctype, value):
        modulus = 1 << ctype.bits
        assert (cint.wrap_to(ctype, value) - value) % modulus == 0

    @given(st.sampled_from(SCALAR_TYPES + [ty.PointerType(ty.UINT8)]),
           st.integers(-(1 << 40), 1 << 40))
    def test_closure_form_agrees(self, ctype, value):
        assert cint.make_wrap(ctype)(value) == cint.wrap_to(ctype, value)

    @given(st.sampled_from(INT_TYPES), st.sampled_from(INT_TYPES))
    def test_common_type_is_at_least_as_wide(self, left, right):
        result = ty.common_arithmetic_type(left, right)
        assert result.bits >= max(left.bits, right.bits)
        assert result.bits >= 16

    @given(st.sampled_from(SCALAR_TYPES))
    def test_every_scalar_value_fits_its_size(self, ctype):
        assert ctype.sizeof() >= 1
