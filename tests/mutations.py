"""A hypothesis strategy for one byte or line mutation of a file's contents,
shared by the readers' fuzz tests."""

from hypothesis import strategies as st

# Bytes that keep JSON close to valid, so that mutations reach the checks
# behind the parser as well as the parser itself.
JSON_BYTES = b'0123456789-+.,:"[]{}eEntfl \n'


@st.composite
def mutated(draw, raw: bytes) -> bytes:
    """`raw` with one byte set, inserted or deleted, cut after a byte, or one
    line deleted, repeated or swapped with another."""
    how = draw(st.sampled_from(["set", "insert", "delete", "truncate", "drop_line", "repeat_line", "swap_lines"]))
    if how in ("set", "insert", "delete", "truncate"):
        at = draw(st.integers(0, len(raw) - 1))
        byte = bytes([draw(st.one_of(st.sampled_from(JSON_BYTES), st.integers(0, 255)))])
        return {
            "set": raw[:at] + byte + raw[at + 1 :],
            "insert": raw[:at] + byte + raw[at:],
            "delete": raw[:at] + raw[at + 1 :],
            "truncate": raw[: at + 1],
        }[how]
    lines = raw.splitlines(keepends=True)
    i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
    if how == "drop_line":
        del lines[i]
    elif how == "repeat_line":
        lines.insert(i, lines[i])
    else:
        lines[i], lines[j] = lines[j], lines[i]
    return b"".join(lines)
