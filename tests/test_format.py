"""The block CSV writer against the one-value-at-a-time ``%.17g`` formatter."""

from fractions import Fraction

import numpy as np
import pytest

from reinforced_ldp import _format
from reinforced_ldp._format import f17, mulhilo64, write_array_csv
from reinforced_ldp.chains import export_path_csv, simulate_chain
from reinforced_ldp.errors import PreconditionViolation
from reinforced_ldp.measures import Kernel

DECADE_NEIGHBOURS = [x for b in (1e-4, 1e-3, 1e-2, 0.1, 1.0)
                     for x in (np.nextafter(b, 0.0), b, np.nextafter(b, 2.0))]


def _ties(P):
    """About 1000 odd ``j`` with ``v = j 2^-(P+1)`` in the decade ``[10^(16-P), 10^(17-P))``:
    there ``%.17g`` scales by ``10^P``, and ``v 10^P`` lies exactly half-way between two integers."""
    lo, hi = -(-2 ** (P + 1) // 10 ** (P - 16)), 2 ** (P + 1) // 10 ** (P - 17)
    return range(lo | 1, hi, 2 * max(1, (hi - lo) // 2000))


TIES = [j / 2.0 ** (P + 1) for P in range(17, 21) for j in _ties(P)]
OUTSIDE = [-0.0, -0.25, 1e-5, 9.999999999999999e-05, 5e-324, 2.5, 1e300, float("inf"), float("nan")]


def _written_floats(tmp_path, values):
    out = tmp_path / "v.csv"
    v = np.asarray(values, dtype=np.float64)
    write_array_csv(out, ["v"], [], v[:, None])
    return out.read_text().splitlines()[1:]


def test_block_floats_equal_f17_on_the_oracle_values(tmp_path):
    values = [c / k for k in range(1, 1001) for c in range(k + 1)]
    values += np.random.default_rng(20).random(100_000).tolist()
    values += [0.0, 1.0] + DECADE_NEIGHBOURS + TIES + OUTSIDE
    assert _written_floats(tmp_path, values) == [f17(x) for x in values]


@pytest.mark.parametrize("value,text", [
    (np.nextafter(1e-3, 0.0), "0.0009999999999999998"),
    (np.nextafter(1e-2, 0.0), "0.0099999999999999985"),
    (np.nextafter(0.1, 0.0), "0.099999999999999992"),
    (0.5, "0.5"),
    (9.999999999999999e-05, "9.9999999999999991e-05"),
    (0.1, "0.10000000000000001"),
    (0.0, "0"),
    (1.0, "1"),
    ((2**17 + 1) / 2**18, "0.50000381469726562"),
    ((2**17 + 3) / 2**18, "0.50001144409179688"),
])
def test_block_float_spot_values(tmp_path, value, text):
    assert _written_floats(tmp_path, [value]) == [text]


def test_tie_values_are_half_way():
    for P in range(17, 21):
        ties = _ties(P)
        assert len(ties) >= 900
        for j in ties:
            v = Fraction(j, 2 ** (P + 1))
            assert Fraction(10) ** (16 - P) <= v < Fraction(10) ** (17 - P)
            assert (v * 10**P) % 1 == Fraction(1, 2)


def test_decade_doubles_lie_above_their_powers_of_ten():
    """The exact-exponent rule: each decade double is the smallest double at or above 10^k."""
    assert _format._E_MIN == -39 and len(_format._DECADES) == 40
    for k, x in zip(range(-39, 1), _format._DECADES):
        assert Fraction(float(np.nextafter(x, 0.0))) < Fraction(10) ** k <= Fraction(float(x))


def test_powers_of_five_are_exact_down_to_the_deepest_decade():
    """The digit scale 5^P, P = 16 - E, of E = -39 fits in 128 bits and that of E = -40 does not."""
    hi, lo, shift = _format._POW5
    assert len(hi) == len(lo) == len(shift) == 39
    assert (5**55).bit_length() == 128 < (5**56).bit_length()
    for E, h, l in zip(range(-39, 0), hi.tolist(), lo.tolist()):
        F = (h << 64) | l
        five = 5 ** (16 - E)
        assert F >> (128 - five.bit_length()) == five and F % 2 ** (128 - five.bit_length()) == 0


def test_powers_of_ten_of_the_two_product_are_exact():
    """10^P, P = 17..22, for the decades [1e-6, 1): exact doubles, and the sums
    of two halves of at most 26 significant bits each (Dekker's split)."""
    assert _format._TWO_LO == _format._DECADES[-7]
    for P, c, hi, lo in zip(range(22, 16, -1), _format._P10, _format._P10_HI, _format._P10_LO):
        assert Fraction(float(c)) == 10**P == Fraction(float(hi)) + Fraction(float(lo))
        for half in (float(hi), float(lo)):
            num = abs(half.as_integer_ratio()[0])
            assert (num // (num & -num)).bit_length() <= 26


def test_the_two_product_decades_never_carry():
    """The double below each decade double from 1e-5 to 1 keeps ``v 10^P`` below
    ``10^17 - 1/2``, so no value of ``[1e-6, 1)`` rounds to the next decade."""
    for E in range(-6, 0):
        below = float(np.nextafter(_format._DECADES[E + 40], 0.0))
        assert Fraction(below) * 10 ** (16 - E) < 10**17 - Fraction(1, 2)


def test_digit_tables_equal_python_formatting():
    quads = _format._QUADS.view("V4")
    assert len(quads) == 3 * 10**4 + 1 and bytes(quads[-1]) == b"\0" * 4
    for g in range(10**4):
        text = b"%04d" % g
        assert bytes(quads[g]) == text
        assert bytes(quads[10**4 + g]) == text.rstrip(b"0").ljust(4, b"\0")
        assert bytes(quads[2 * 10**4 + g]) == (b"%4d" % g).replace(b" ", b"\0")


def test_binade_decades_are_the_floor_of_log10():
    for e in range(1, 1023):
        k = int(_format._BINADE_DECADE[e])
        x = Fraction(2) ** (e - 1023)
        if k >= -39:
            assert Fraction(10) ** k <= x < Fraction(10) ** (k + 1)
        else:
            assert k == -40 and x < Fraction(10) ** -39


# exponent form: every decade of normal doubles below 1e-4, with the edges of
# every decade, built apart from the writer's table (those below 1e-39 go
# through f17)
LOG_UNIFORM = np.exp(np.random.default_rng(21).uniform(np.log(2.0**-1022), np.log(1e-4), 150_000))
DECADE_EDGES = [float(x) for k in range(1, 309)
                for d in [float(f"1e-{k}")] for x in (np.nextafter(d, 0.0), d, np.nextafter(d, 1.0))]
EXPONENT_TIES = [j / 2.0 ** (P + 1) for P in range(21, 25) for j in _ties(P)]


def test_exponent_form_equals_f17(tmp_path):
    values = LOG_UNIFORM.tolist() + DECADE_EDGES + EXPONENT_TIES
    assert _written_floats(tmp_path, values) == [f17(x) for x in values]


def test_exponent_ties_are_half_way():
    """Ties exist down to 1e-8: ``v = j 2^-(P+1)`` with odd ``j`` needs ``j < 2^(P+1) 10^(17-P)``."""
    assert len(EXPONENT_TIES) > 200 and len(_ties(24)) > 0
    for P in range(21, 25):
        for j in _ties(P):
            v = Fraction(j, 2 ** (P + 1))
            assert Fraction(10) ** (16 - P) <= v < Fraction(10) ** (17 - P)
            assert (v * 10**P) % 1 == Fraction(1, 2)


@pytest.mark.parametrize("k", [-14, -176, -305])
def test_carry_to_the_next_decade(tmp_path, monkeypatch, k):
    """The double below the decade double rounds up to 10^17 in its own decade and
    is written as the next power of ten: by the 128-bit route at k = -14, the one
    such decade in its domain, and by f17 at the deeper two."""
    seen = []
    monkeypatch.setattr(_format, "f17", lambda x: seen.append(x) or f17(x))
    d = float(f"1e{k}")
    d = d if Fraction(d) >= Fraction(10) ** k else float(np.nextafter(d, 1.0))
    below = float(np.nextafter(d, 0.0))
    assert Fraction(below) < Fraction(10) ** k
    assert _written_floats(tmp_path, [below]) == [f"1e-{-k}"] == [f17(below)]
    assert seen == ([] if k == -14 else [below])


def test_values_outside_the_fast_domain_go_through_f17(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(_format, "f17", lambda x: seen.append(x) or f17(x))
    deepest = float(_format._DECADES[0])
    slow = [5e-324, 1e-310, float(np.nextafter(2.0**-1022, 0.0)), 2.0**-1022, 1e-100,
            float(np.nextafter(deepest, 0.0)), 1.0]
    fast = [deepest, 1e-4]
    assert _written_floats(tmp_path, slow + fast) == [f17(x) for x in slow + fast]
    assert seen == slow


def test_the_two_product_decades_make_no_128_bit_product(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(_format, "mulhilo64", lambda a, b: calls.append(len(b)) or mulhilo64(a, b))
    rng = np.random.default_rng(22)
    lowest = float(_format._DECADES[-7])  # the smallest double at or above 1e-6
    values = np.exp(rng.uniform(np.log(lowest), 0.0, 8000)).tolist() + [lowest, float(np.nextafter(1.0, 0.0))]
    values = [x for x in values + TIES if x >= lowest] + [0.0]
    assert _written_floats(tmp_path, values) == [f17(x) for x in values]
    assert calls == []
    assert _written_floats(tmp_path, values + [1e-7]) == [f17(x) for x in values + [1e-7]]
    assert calls == [1]


def test_one_block_of_every_route_equals_f17(tmp_path):
    """The oracle, tie and exponent-form values interleaved in one block, so
    every cell's route is chosen beside cells of the other routes."""
    values = [c / k for k in range(1, 101) for c in range(k + 1)] + TIES + EXPONENT_TIES
    values += LOG_UNIFORM[:12_000].tolist() + DECADE_NEIGHBOURS + OUTSIDE
    values += [0.0] * (-len(values) % 4)
    floats = np.random.default_rng(23).permutation(values).reshape(-1, 4)
    assert len(floats) <= _format._BLOCK_ROWS
    steps = np.arange(len(floats))
    out = tmp_path / "mixed.csv"
    write_array_csv(out, ["k", "a", "b", "c", "d"], [steps], floats)
    expected = "k,a,b,c,d\n" + "".join("%d,%.17g,%.17g,%.17g,%.17g\n" % (k, *f) for k, f in zip(steps, floats.tolist()))
    assert out.read_bytes() == expected.encode()


def test_mulhilo64_matches_python_integers():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 2**64, 1000, dtype=np.uint64, endpoint=False)
    b = rng.integers(0, 2**64, 1000, dtype=np.uint64, endpoint=False)
    a[:2], b[:2] = np.uint64(2**64 - 1), np.uint64(2**64 - 1)
    b[2] = 0
    hi, lo = mulhilo64(a, b)
    for x, y, h, l in zip(a.tolist(), b.tolist(), hi.tolist(), lo.tolist()):
        assert (h << 64) | l == x * y
    # a scalar first operand
    for x in (0xD2E7470EE14C6C93, 0xCA5A826395121157, 2**64 - 1, 1, 0):
        hi, lo = mulhilo64(np.uint64(x), b)
        for y, h, l in zip(b.tolist(), hi.tolist(), lo.tolist()):
            assert (h << 64) | l == x * y


def test_integer_columns_and_rows_cross_blocks(tmp_path):
    rows = _format._BLOCK_ROWS + 1900
    steps = np.arange(rows)
    other = np.array([0, 7, 10, 99, 100, 12345] * rows)[:rows]
    floats = np.random.default_rng(5).random((rows, 3))
    floats[::7, 1] = 0.0
    out = tmp_path / "rows.csv"
    write_array_csv(out, ["a", "b", "x", "y", "z"], [steps, other], floats, "config_sha256=00 seed=1")
    expected = "# config_sha256=00 seed=1\na,b,x,y,z\n" + "".join(
        "%d,%d,%.17g,%.17g,%.17g\n" % (a, b, *f) for a, b, f in zip(steps, other, floats.tolist()))
    assert out.read_bytes() == expected.encode()


def test_integer_cells_at_every_power_of_ten(tmp_path):
    values = [0, 9, 10] + [v for k in range(2, 19) for v in (10**k - 1, 10**k)] + [2**63 - 1]
    values = np.array(values, dtype=np.int64)
    # a column capped at 10^k - 1 is k digits wide, one capped at 10^k is k + 1
    caps = [c for k in range(1, 19) for c in (10**k - 1, 10**k)] + [2**63 - 1]
    ints = [np.minimum(values, cap) for cap in caps]
    out = tmp_path / "ints.csv"
    write_array_csv(out, [f"c{j}" for j in range(len(ints))] + ["x"], ints, np.zeros((len(values), 1)))
    rows = out.read_text().splitlines()[1:]
    assert rows == [",".join("%d" % c[i] for c in ints) + ",0" for i in range(len(values))]


@pytest.mark.parametrize("bad", [[3, -2, 10], [3.7, 2, 10], [3.0, float("nan"), 1.0], [3.0, float("inf"), 1.0],
                                 [3.0, 1e20, 1.0], [3.0, 2.0**64, 1.0]])
def test_integer_column_rejects_what_it_cannot_write(tmp_path, bad):
    """A negative, fractional, non-finite or 2^64-and-above integer cell
    raises, naming its column, before the file is opened: its uint64 digits
    would be wrong."""
    out = tmp_path / "bad.csv"
    good = np.arange(3)
    with pytest.raises(PreconditionViolation, match="column 'b'"):
        write_array_csv(out, ["a", "b", "x"], [good, np.array(bad)], np.zeros((3, 1)))
    assert not out.exists()
    # integral floats are integers
    write_array_csv(out, ["a", "b", "x"], [good, np.array([3.0, 2.0, 10.0])], np.zeros((3, 1)))
    assert out.read_text() == "a,b,x\n0,3,0\n1,2,0\n2,10,0\n"


def test_export_path_csv_equals_row_template(tmp_path):
    A = Kernel(0.9 * np.random.default_rng(12).dirichlet(np.ones(4), size=4) + 0.1 / 4)
    path = simulate_chain(A, 2, 10_050, 7)
    out = tmp_path / "path.csv"
    export_path_csv(path, out)
    template = "%d,%d" + ",%.17g" * 4 + "\n"
    expected = "step,state,L_1,L_2,L_3,L_4\n" + "".join(
        template % (k, x, *row) for k, x, row in zip(range(1, 10_051), path.states.tolist(), path.L.tolist()))
    assert out.read_bytes() == expected.encode()
