"""Property tests: every text input to a parser gives a valid value or a
ValidationError, never another exception."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ethcold.bip39 import mnemonic_to_seed  # noqa: E402
from ethcold.errors import ValidationError  # noqa: E402
from ethcold.hd import format_path, HARDENED, parse_path  # noqa: E402
from ethcold.u256 import from_hex, U256_MAX  # noqa: E402

HEX = "0123456789abcdefABCDEF"
# Characters that Python's int() or str.isdigit() accept but a strict parser
# must not: signs, underscores, spaces, non-ASCII digits, a surrogate.
STRAY = "-+_ \u0663\u00b2\udcff"


def _splice(text, position, stray):
    position %= len(text) + 1
    return text[:position] + stray + text[position + 1:]


# Near misses: a canonical string with one character replaced by a stray
# one, plus arbitrary text.
hex_like = st.one_of(
    st.text(),
    st.builds(lambda pre, body: pre + body, st.sampled_from(["", "0x", "0X"]),
              st.builds(_splice, st.text(HEX, min_size=64, max_size=64),
                        st.integers(0, 64), st.sampled_from(STRAY))),
)

suffix = st.sampled_from(["", "'", "h"])
path_element = st.one_of(
    st.builds(lambda i, s: "%d%s" % (i, s), st.integers(0, 2 ** 32), suffix),
    st.builds(lambda d, s: d + s,
              st.text("0123456789" + STRAY, min_size=1, max_size=11), suffix),
    st.text(max_size=4),
)
path_like = st.one_of(
    st.text(),
    st.lists(path_element, max_size=6).map(lambda parts: "/".join(["m"] + parts)),
)

@given(hex_like)
def test_from_hex_in_range_or_validation_error(text):
    try:
        value = from_hex(text)
    except ValidationError:
        return
    assert 0 <= value <= U256_MAX
    # only a canonical spelling of the value is accepted
    body = text.strip()
    if body[:2] in ("0x", "0X"):
        body = body[2:]
    assert body.lower() == "%064x" % value


@given(st.integers(0, U256_MAX), st.sampled_from(["", "0x", "0X"]),
       st.booleans())
def test_from_hex_accepts_every_canonical_form(value, prefix, upper):
    digits = "%064x" % value
    assert from_hex(prefix + (digits.upper() if upper else digits)) == value


@given(path_like)
def test_parse_path_in_range_or_validation_error(text):
    try:
        path = parse_path(text)
    except ValidationError:
        return
    assert all(0 <= index < 1 << 32 for index in path)


@given(st.lists(st.integers(0, 2 * HARDENED - 1), max_size=6))
def test_parse_path_round_trips_every_path(path):
    assert parse_path(format_path(path)) == tuple(path)


@settings(max_examples=40, deadline=None)
@given(st.text(max_size=8))
def test_seed_is_64_bytes_or_validation_error(passphrase):
    try:
        seed = mnemonic_to_seed("abandon about", passphrase)
    except ValidationError:
        return
    assert len(seed) == 64
