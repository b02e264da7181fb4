"""Round three of ``iterate``, pinned byte for byte.

``tests/test_golden.py`` pins the first round of every corpus instance,
and the benchmark's corpus pass reaches the second.  A change that keeps
every report passing can still change the third round: taking the last
angle row with a constant as the pivot in ``transform.select_basis``, not
the first, does so on ci3 and on generic draws.  This pins the bytes
``emit_star`` writes (no report block, so no timings) for round three of
``iterate`` on ci3 and on the generic n = 3 draw 0 over p:32003 with
linear parameters (``reference.generic_koszul``).
"""

import hashlib

import pytest

from reference import generic_koszul
from startrans import PrimeField, instances, star_transform
from startrans.poly import format_polynomial
from startrans.problemfile import ProblemFile, emit_star

ROUND_THREE = {
    "ci3": "13cc5920da79ae0f6ede564df0a92e6c372bd7f2e55ca5dca4c426f7056b3f64",
    "generic_n3_draw0": "f69102d41ec22165a3e79d5e81f3cc1f0ef77644179d6e50fa897b864b3e76f1",
}


def _instance(name):
    if name == "ci3":
        return next((c, s) for n, c, s in instances.corpus() if n == name)
    return generic_koszul(PrimeField(32003), 3, 1, 0)


@pytest.mark.parametrize("name", sorted(ROUND_THREE))
def test_round_three_of_iterate_is_pinned(tmp_path, name):
    # three rounds of ``iterate``: each round transforms the last output
    comp, sop = _instance(name)
    third = None
    for _ in range(3):
        third = star_transform(third.star.complex if third else comp, sop)
        assert third.report.overall
    assert [m.rank for m in third.star.complex.modules] == [1, 10, 10, 1]
    base = ProblemFile(comp.ring, tuple(format_polynomial(g) for g in sop.gens), comp)
    path = tmp_path / "round3.json"
    emit_star(third.star, None, str(path), base, third.input_complex)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ROUND_THREE[name]
