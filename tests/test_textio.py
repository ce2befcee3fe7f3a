import math

import numpy as np

from mmseprox.textio import fmt17


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
