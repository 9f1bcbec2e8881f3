"""The block CSV writer against the one-value-at-a-time ``%.17g`` formatter."""

from fractions import Fraction

import numpy as np
import pytest

from reinforced_ldp import _format
from reinforced_ldp._format import f17, mulhilo64, write_array_csv
from reinforced_ldp.chains import export_path_csv, simulate_chain
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
    """The exact-exponent rule: each decade double exceeds 10^k and its lower neighbour does not."""
    for k, x in zip(range(-4, 0), _format._DECADES):
        assert Fraction(float(np.nextafter(x, 0.0))) < Fraction(10) ** k < Fraction(float(x))


def test_mulhilo64_matches_python_integers():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 2**64, 1000, dtype=np.uint64, endpoint=False)
    b = rng.integers(0, 2**64, 1000, dtype=np.uint64, endpoint=False)
    a[:2], b[:2] = np.uint64(2**64 - 1), np.uint64(2**64 - 1)
    hi, lo = mulhilo64(a, b)
    for x, y, h, l in zip(a.tolist(), b.tolist(), hi.tolist(), lo.tolist()):
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


def test_export_path_csv_equals_row_template(tmp_path):
    A = Kernel(0.9 * np.random.default_rng(12).dirichlet(np.ones(4), size=4) + 0.1 / 4)
    path = simulate_chain(A, 2, 10_050, 7)
    out = tmp_path / "path.csv"
    export_path_csv(path, out)
    template = "%d,%d" + ",%.17g" * 4 + "\n"
    expected = "step,state,L_1,L_2,L_3,L_4\n" + "".join(
        template % (k, x, *row) for k, x, row in zip(range(1, 10_051), path.states.tolist(), path.L.tolist()))
    assert out.read_bytes() == expected.encode()
