import pytest
from hypothesis import given, settings, strategies as st

from torusconj import parse_spec, serialize_spec, make_spec, TrigTerm
from torusconj.errors import SpecParseError

from conftest import FIX_BIGFREQ


def test_parse_basic():
    s = parse_spec("dim=2\nM=[[2,1],[0,1]]\nG[1]=0.05*sin(2*pi*(z1+z2))\n")
    assert s.d == 2
    assert s.M == ((2, 1), (0, 1))
    assert len(s.terms) == 1
    t = s.terms[0]
    assert (t.component, t.frequency, t.kind, t.coefficient) == (1, (1, 1), "sin", 0.05)


def test_parse_signs_coefs_comments():
    s = parse_spec("""
# a comment
dim=2
M=[[2,0],[0,2]]   # trailing comment
G[2]=-sin(2*pi*(z1)) + 0.5*cos(2*pi*(2*z1-z2))
""")
    terms = {(t.kind, t.frequency): t.coefficient for t in s.terms}
    assert terms[("sin", (1, 0))] == -1.0
    assert terms[("cos", (2, -1))] == 0.5


def test_parse_errors_have_locations():
    with pytest.raises(SpecParseError) as ei:
        parse_spec("dim=2\nM=[[2,1],[0,1]]\nG[1]=0.1*sin(2*pi*(1.5*z1))\n")
    assert "line 3" in str(ei.value)
    with pytest.raises(SpecParseError, match="line 2"):
        parse_spec("dim=2\nM=[[2,0.5],[0,1]]\n")
    with pytest.raises(SpecParseError):
        parse_spec("dim=2\nM=[[2,1],[0,1]]\nG[1]=0.1*sin(2*pi*(w1))\n")
    with pytest.raises(SpecParseError):
        parse_spec("")
    with pytest.raises(SpecParseError):
        parse_spec("dim=2\nM=[[2,1],[0,1]]\nG[3]=sin(2*pi*(z1))\n")
    with pytest.raises(SpecParseError):
        # missing the mandatory 2*pi*(...) factor
        parse_spec("dim=1\nM=[[2]]\nG[1]=0.1*sin(z1)\n")


def test_overflowing_literal_rejected():
    with pytest.raises(SpecParseError, match="line 3, col 6: numeric literal '1e999'"):
        parse_spec("dim=2\nM=[[2,1],[0,1]]\nG[1]=1e999*sin(2*pi*(z1))\n")
    with pytest.raises(SpecParseError, match="line 2, col 5"):
        parse_spec("dim=1\nM=[[" + "9" * 400 + "]]\n")


def test_integer_beyond_float64_rejected():
    # float64 holds every integer up to 2^53 and rounds some beyond it: an
    # M entry or a frequency beyond it is refused where it is written, a
    # frequency also where a sum of terms first passes it
    two53 = 2 ** 53
    assert parse_spec(f"dim=1\nM=[[-{two53}]]\n").M == ((-two53,),)
    for text, where in ((f"dim=1\nM=[[{two53 + 1}]]\n", "line 2, col 5: matrix entry"),
                        (FIX_BIGFREQ, "line 3, col 21: frequency 100000000000000000000 of z1"),
                        (f"dim=1\nM=[[2]]\nG[1]=sin(2*pi*(z1-{two53}*z1-2*z1))\n",
                         f"line 3, col 39: frequency -{two53 + 1} of z1")):
        with pytest.raises(SpecParseError, match=f"{where} .*beyond 2\\^53"):
            parse_spec(text)


def test_canonicalization_merges_and_drops():
    terms = [TrigTerm(1, (1, 0), "sin", 0.25),
             TrigTerm(1, (1, 0), "sin", 0.75),
             TrigTerm(1, (0, 1), "cos", 0.5),
             TrigTerm(1, (0, 1), "cos", -0.5)]
    s = make_spec(2, [[2, 0], [0, 2]], terms)
    assert len(s.terms) == 1
    assert s.terms[0].coefficient == 1.0


def test_serialize_round_trip_basic():
    text = "dim=2\nM=[[2,1],[0,1]]\nG[1]=0.05*sin(2*pi*(z1+z2))\nG[2]=-0.125*cos(2*pi*(2*z2))\n"
    s = parse_spec(text)
    assert parse_spec(serialize_spec(s)) == s


@st.composite
def specs(draw):
    d = draw(st.integers(1, 3))
    M = [[draw(st.integers(-3, 3)) for _ in range(d)] for _ in range(d)]
    nterms = draw(st.integers(0, 5))
    terms = []
    for _ in range(nterms):
        freq = tuple(draw(st.integers(-4, 4)) for _ in range(d))
        coef = draw(st.floats(min_value=-10, max_value=10,
                              allow_nan=False, allow_infinity=False))
        terms.append(TrigTerm(component=draw(st.integers(1, d)),
                              frequency=freq,
                              kind=draw(st.sampled_from(["sin", "cos"])),
                              coefficient=coef))
    return make_spec(d, M, terms)


@given(specs())
@settings(max_examples=100, deadline=None)
def test_round_trip_property(spec):
    assert parse_spec(serialize_spec(spec)) == spec


def test_spec_is_hashable(spec_1d):
    {spec_1d: 1}
