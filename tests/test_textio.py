import math

import numpy as np

from mmseprox.textio import csv_text, fmt17


def test_fmt17_exact_strings():
    cases = [
        (math.nan, "nan"),
        (-math.nan, "nan"),
        (math.inf, "inf"),
        (-math.inf, "-inf"),
        (0.0, "0"),
        (-0.0, "-0"),
        (5e-324, "4.9406564584124654e-324"),
        (1.0 / 3.0, "0.33333333333333331"),
        (np.float64(0.1), "0.10000000000000001"),
        (7, "7"),
    ]
    for value, text in cases:
        assert fmt17(value) == text, (value, fmt17(value), text)


def test_fmt17_round_trips():
    for value in (1.0 / 3.0, -2.5e-300, 1.7976931348623157e308, 149.20071250717874):
        assert float(fmt17(value)) == value


def test_csv_text_exact_bytes():
    columns = ([1, 2], [0.5, -math.inf], [math.nan, 1.0 / 3.0], np.array([True, False]))
    assert csv_text("k,a,b,ok", columns) == (
        "k,a,b,ok\n1,0.5,nan,true\n2,-inf,0.33333333333333331,false\n"
    )
    assert csv_text(None, columns) == "1,0.5,nan,true\n2,-inf,0.33333333333333331,false\n"
    assert csv_text("k", ([],)) == "k\n"


def test_csv_text_grid_rows():
    h, w = 3, 5
    a = np.random.default_rng(0).standard_normal(h * w)
    lines = csv_text(None, a.reshape(h, w).T).splitlines()
    assert len(lines) == h
    for line, row in zip(lines, a.reshape(h, w)):
        assert line == ",".join(fmt17(v) for v in row)


def test_csv_text_matches_per_value_format():
    # One printf template per row must write exactly what one
    # format(float(v), ".17g") per value writes.
    tiny, huge = 5e-324, 1.7976931348623157e308
    floats = np.array([math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, tiny, -tiny,
                       huge, -huge, 1.0 / 3.0, 2.2250738585072014e-308, 1e22, 123456789.0])
    rng = np.random.default_rng(5)
    floats = np.concatenate([floats, rng.standard_normal(50) * 10.0 ** rng.integers(-300, 300, 50)])
    n = floats.size
    ints = np.arange(n) * 1_000_003 - 7
    flags = rng.random(n) < 0.5
    columns = (ints, floats, flags, floats[::-1].copy(), list(range(n)))
    want = [",".join([format(float(i), ".17g"), format(float(a), ".17g"),
                      "true" if f else "false", format(float(b), ".17g"),
                      format(float(k), ".17g")])
            for i, a, f, b, k in zip(ints, floats, flags, floats[::-1], range(n))]
    assert csv_text(None, columns) == "\n".join(want) + "\n"
    assert csv_text("i,a,ok,b,k", columns) == "i,a,ok,b,k\n" + "\n".join(want) + "\n"
    for v in floats:
        assert fmt17(v) == format(float(v), ".17g")
