"""Exhaustive negative-path tests for the assembler (error matrix)."""

import pytest

from repro.isa import AssemblerError, assemble


@pytest.mark.parametrize("src,match", [
    ("frobnicate x0", "unknown mnemonic"),
    ("add x0, x1", "expects 3 operands"),
    ("mov x0", "expects 2 operands"),
    ("ldr x0", "expects 2 operands"),
    ("madd x0, x1, x2", "expects 4 operands"),
    ("b", "expects 1 operands"),
    ("cbz x0", "expects 2 operands"),
    ("halt x0", "expects 0 operands"),
    ("b nowhere", "undefined label"),
    ("cbz x1, missing", "undefined label"),
    ("adr x0, ghost", "unknown symbol"),
    ("mov x0, #notanumber", "unknown symbol"),
    ("ldr x0, [x1, x2, lsl]", "bad memory operand"),
    ("ldr x0, [x1 x2]", "bad memory operand"),
    ("ldr x0, [x1, #4], #8", "mixed addressing"),
    ("add q0, x1, x2", "bad register"),
    ("add x99, x1, x2", "out of range"),
    ("fmov d0, #nan-ish", "bad float"),
])
def test_error_cases(src, match):
    with pytest.raises((AssemblerError, ValueError), match=match):
        assemble(src)


def test_duplicate_labels():
    with pytest.raises(AssemblerError, match="duplicate label"):
        assemble("x:\nnop\nx:\nhalt")


def test_line_numbers_in_errors():
    try:
        assemble("nop\nnop\nbogus x0")
    except AssemblerError as exc:
        assert "line 3" in str(exc)
    else:  # pragma: no cover
        pytest.fail("expected AssemblerError")


def test_empty_program_is_valid():
    p = assemble("")
    assert len(p) == 0


def test_comment_only_program():
    p = assemble("; nothing here\n// still nothing")
    assert len(p) == 0


def test_whitespace_tolerance():
    p = assemble("   add\tx0 , x1 ,  #4  \n\n  halt ")
    assert len(p) == 2
    assert p[0].imm == 4


@pytest.mark.parametrize("src,message", [
    ("add x1, x2, d3", "add takes an X register in operand 3, got d3"),
    ("mov d1, #3", "mov takes an X register in operand 1, got d1"),
    ("fmov x1, d0", "fmov takes a D register in operand 1, got x1"),
    ("ldr x1, [d2]", "ldr takes an X register in operand 2, got d2"),
    ("cmp d1, #3", "cmp takes an X register in operand 1, got d1"),
    ("cbz d1, L\nL: halt", "cbz takes an X register in operand 1, got d1"),
])
def test_register_class_mismatch(src, message):
    """Operand register classes are checked where the program enters:
    the step compiler never sees a shape it cannot lower."""
    with pytest.raises(AssemblerError) as info:
        assemble(src)
    assert str(info.value) == f"line 1: {message}"
