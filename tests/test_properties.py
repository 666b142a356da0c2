"""Property tests: every text input to a parser gives a valid value or a
ValidationError, never another exception, and every argv given to the
CLI ends in one of its exit codes."""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ethcold.bip39 import mnemonic_to_seed  # noqa: E402
from ethcold.cli import main, MAX_COUNT, MAX_SAMPLES, Session  # noqa: E402
from ethcold.errors import ValidationError  # noqa: E402
from ethcold.hd import format_path, HARDENED, parse_path  # noqa: E402

# Characters that Python's int() or str.isdigit() accept but a strict parser
# must not: signs, underscores, spaces, non-ASCII digits, a surrogate.
STRAY = "-+_ \u0663\u00b2\udcff"

suffix = st.sampled_from(["", "'", "h", "H"])
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


# --- every argv ---

def _values(good, near_misses):
    """Half the draws a value the command accepts, half a near miss."""
    return st.one_of(st.sampled_from(good), near_misses)


MNEMONIC = " ".join(["abandon"] * 11 + ["about"])
TEXT = st.one_of(st.text(max_size=6),
                 st.sampled_from(["\udcff", "a\udcff", "\ud800", "caf\u00e9",
                                  "\u0663", "9" * 40]))
HEX_MISSES = st.sampled_from([
    "zz" * 16, "", "00" * 17, "00 " * 16, " 0x" + "11 " * 32,
    "ab" * 16 + "\n" + "ab" * 16, "\u0663" * 64, "\udcff" + "00" * 31,
    "9" * 40, "-1"])
INT_MISSES = st.sampled_from(["-1", "-" + "9" * 40, "\u00b2", "0x3", "x", "",
                              "\udcff", " 2 ", "\u0663", "\u0661"])
VALUES = {
    "--entropy-hex": _values(["00" * 16, "0x" + "7f" * 32], HEX_MISSES),
    "--digest": _values(["00" * 32, "0x" + "ab" * 32], HEX_MISSES),
    "--mnemonic": _values([MNEMONIC], st.one_of(TEXT, st.sampled_from([
        MNEMONIC.replace("about", "abandon"),
        MNEMONIC.replace("about", "\udcff"),
        MNEMONIC.replace(" ", "\u00a0")]))),
    "--passphrase": TEXT,
    "--words": _values(["12", "24"],
                       st.sampled_from(["13", "-24", "9" * 40,
                                        "\u0661\u0662"])),
    # an accepted --count is at most 3, so no argv derives many accounts;
    # one over the maximum must exit before it derives any
    "--count": _values(["1", "3"], st.one_of(INT_MISSES, st.sampled_from(
        [str(MAX_COUNT + 1), "9" * 10]))),
    # any 10-digit index: one derivation below 2^31, exit 3 at or above it
    "--index": st.one_of(st.integers(0, 10 ** 10 - 1).map(str), INT_MISSES,
                         st.sampled_from([str(HARDENED - 1), str(HARDENED)])),
    # only values --samples rejects (below 2 or above MAX_SAMPLES), so no
    # report runs
    "--samples": st.sampled_from(["-1", "-" + "9" * 40, "0", "1", "\u0661",
                                  "\u00b2", "1e9", "x", "", "\udcff",
                                  str(MAX_SAMPLES + 1), "9999999999"]),
}
SWITCHES = ["--random", "--export-private", "--i-understand-risks",
            "--deterministic", "--json", "--help", "--bogus"]
# the selftest command is left out: it runs fixed inputs only
COMMAND_FLAGS = {
    "init": ["--entropy-hex", "--random", "--words", "--passphrase"],
    "recover": ["--mnemonic", "--passphrase"],
    "derive": ["--mnemonic", "--passphrase", "--count"],
    "list": ["--mnemonic", "--passphrase", "--count", "--export-private",
             "--i-understand-risks"],
    "sign": ["--mnemonic", "--passphrase", "--index", "--digest",
             "--deterministic"],
    "trace": ["--samples"],
}
ANY_FLAG = sorted(VALUES) + SWITCHES


@st.composite
def argvs(draw):
    """[--json] command, then some of its own flags in any order, now and
    then with a flag from elsewhere; each value drawn for its flag."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS) + ["bogus", ""]))
    own = draw(st.permutations(COMMAND_FLAGS.get(command, SWITCHES)))
    flags = own[:draw(st.one_of(st.just(len(own)), st.integers(0, len(own))))]
    if draw(st.integers(0, 3)) == 0:
        flags.insert(draw(st.integers(0, len(flags))),
                     draw(st.sampled_from(ANY_FLAG)))
    argv = ["--json"] if draw(st.booleans()) else []
    argv += [command] if command else []
    for flag in flags:
        argv += [flag, draw(VALUES[flag])] if flag in VALUES else [flag]
    return argv


@settings(max_examples=500, deadline=None)
@given(argvs(), st.booleans())
def test_every_argv_ends_in_an_exit_code(argv, with_session):
    # a UTF-8 terminal: strict on stdout, backslash escapes on stderr
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8",
                           errors="backslashreplace")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv, session=Session() if with_session else None)
    assert code in (0, 2, 3, 4)
