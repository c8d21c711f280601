"""Fixed-width integer addition and the stack-frame overwrite demonstration."""

from __future__ import annotations

from ..records import record
from ..errors import DomainError

RETURN_ADDRESS = "0049"
CRASH_SENTINEL = "9999"


def add_wrapped(a: int, b: int, width: int) -> tuple[int, bool]:
    """Sum of two unsigned fixed-width integers with wraparound flag."""
    if width not in (8, 16, 32):
        raise DomainError(f"width must be 8, 16, or 32, got {width}")
    limit = 1 << width
    if not (0 <= a < limit and 0 <= b < limit):
        raise DomainError(f"operands must be in [0, {limit}), got {a} and {b}")
    total = a + b
    return total % limit, total >= limit


@record
class StackFrameDemo:
    slots: dict[str, str]  # offset "0000"/"0004" -> 4-hex-digit value
    outcome: str  # normal_return | hijacked_control | crash
    control_target: str | None = None  # address control jumps to when hijacked


def stack_overwrite_demo(expected_arg_bytes: int, input_digits: str) -> StackFrameDemo:
    """Fill a two-slot frame from untrusted input.

    Offset 0004 holds the argument and fills first; anything past 4 hex
    digits spills into offset 0000, which holds the return address.
    """
    if expected_arg_bytes != 4:
        raise DomainError(f"frame models a 4-byte argument slot, got {expected_arg_bytes}")
    if not input_digits:
        raise DomainError("input must be non-empty")
    if any(c not in "0123456789abcdefABCDEF" for c in input_digits):
        raise DomainError(f"input {input_digits!r} is not hex digits")
    if len(input_digits) > 8:
        raise DomainError("input exceeds the two-slot frame (max 8 hex digits)")
    digits = input_digits.upper() if input_digits.isupper() else input_digits
    arg = digits[:4].zfill(4)
    slots = {"0000": RETURN_ADDRESS, "0004": arg}
    if len(digits) > 4:
        slots["0000"] = digits[4:8].zfill(4)
    ret = slots["0000"]
    if ret == RETURN_ADDRESS:
        return StackFrameDemo(slots=slots, outcome="normal_return")
    if ret == CRASH_SENTINEL or int(ret, 16) == 0:
        return StackFrameDemo(slots=slots, outcome="crash")
    return StackFrameDemo(slots=slots, outcome="hijacked_control", control_target=ret)
