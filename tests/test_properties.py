"""Property tests: domino insertion on random signed permutations of ranks
5 to 7, and the CLI on generated --charge and --r text.

Hypothesis runs derandomized and without its example database, so every
run draws the same examples."""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from heckeb import INFINITY
from heckeb.cli import run
from heckeb.domino import SignedPermutation, insert, s_t_lambda

from oracles import qtilde_r, validate_tableau
from test_domino import quotient_chain_qtilde_r, set_insert

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=40)
R = st.sampled_from([0, 1, 2, INFINITY])


@st.composite
def signed_permutations(draw):
    n = draw(st.integers(5, 7))
    perm = draw(st.permutations(range(1, n + 1)))
    signs = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return SignedPermutation(tuple(-x if negative else x
                                   for x, negative in zip(perm, signs)))


@PROPERTY
@given(signed_permutations(), R)
def test_recording_tableau_inserts_the_inverse(w, r):
    # (3.3): Q_r(w) = P_r(w^{-1})
    assert insert(w, r)[1] == insert(w.inverse(), r)[0]


@PROPERTY
@given(signed_permutations(), R)
def test_bitableaux_share_one_shape(w, r):
    s, t, shape = s_t_lambda(w, r)
    s.validate()
    t.validate()
    assert s.shape == t.shape == shape and s.n == t.n == w.n


@PROPERTY
@given(signed_permutations(), R)
def test_insertion_matches_the_references(w, r):
    # the integer core against insertion on cell sets, and q~_r on the
    # abacus against the quotient chain
    p, q = insert(w, r)
    assert (p, q) == set_insert(w, r)
    for d in (p, q):
        validate_tableau(d)
        assert qtilde_r(d) == quotient_chain_qtilde_r(d)
    assert s_t_lambda(w, r)[:2] == (qtilde_r(p), qtilde_r(q))


# Any text, and text close to what the flags read: integers, lists of
# them and the names of r = inf.
TEXT = st.one_of(
    st.text(max_size=12),
    st.from_regex(r"\A[ -]?[0-9]{1,4}(,[ -]?[0-9]{1,4}){0,2}\Z"),
    st.sampled_from(["", ",", "inf", "infinity", "∞", "0,0", "1,x"]))


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


def assert_clean_exit(code, err):
    # 0, or 1 with one error line last; run raises on anything else, so a
    # traceback fails the test
    assert code in (0, 1)
    errors = [line for line in err.splitlines()
              if line.startswith("heckeb: error:")]
    assert errors == ([] if code == 0 else err.splitlines()[-1:])


@PROPERTY
@given(TEXT)
def test_charge_text(text):
    assert_clean_exit(*run_captured(
        ["crystal", f"--charge={text}", "--e", "2", "--n", "2"]))


@PROPERTY
@given(TEXT)
def test_r_text(text):
    assert_clean_exit(*run_captured(
        ["charge", f"--r={text}", "--d", "0", "--e", "2"]))
