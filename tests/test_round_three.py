"""Round three of ``iterate``, pinned byte for byte.

``tests/test_golden.py`` pins the first round of every corpus instance,
and the benchmark's corpus pass reaches the second.  A change that keeps
every report passing can still change the third round: taking the last
angle row with a constant as the pivot in ``transform.select_basis``, not
the first, does so on ci3 and on generic draws.  This pins the bytes
``emit_star`` writes (no report block, so no timings) for round three of
``iterate`` on ci3, on the generic n = 3 draw 0 over p:32003 with linear
parameters (``reference.generic_koszul``), and on draw 0 over p:32003 of
the Hilbert-Burch (t = 2) and Eagon-Northcott resolutions
(``reference.hilbert_burch``, ``reference.eagon_northcott``), whose ranks
no Koszul input reaches.
"""

import hashlib

import pytest

from reference import eagon_northcott, generic_koszul, hilbert_burch
from startrans import PrimeField, instances, star_transform
from startrans.poly import format_polynomial
from startrans.problemfile import ProblemFile, emit_star

# name -> (sha256 of the round-three file, its ranks)
ROUND_THREE = {
    "ci3": (
        "13cc5920da79ae0f6ede564df0a92e6c372bd7f2e55ca5dca4c426f7056b3f64",
        [1, 10, 10, 1],
    ),
    "generic_n3_draw0": (
        "f69102d41ec22165a3e79d5e81f3cc1f0ef77644179d6e50fa897b864b3e76f1",
        [1, 10, 10, 1],
    ),
    "hilbert_burch_t2_draw0": (
        "16f799614a73a7b67e07293f0513f88c16d702b7217aec1752b9c92a492a82ad",
        [1, 3, 2],
    ),
    "eagon_northcott_draw0": (
        "5f8957e64c41c2ee5141025b502f4b012af2354c554fb6020a1c04af5f260813",
        [1, 28, 33, 6],
    ),
}


def _instance(name):
    if name == "ci3":
        return next((c, s) for n, c, s in instances.corpus() if n == name)
    if name == "hilbert_burch_t2_draw0":
        return hilbert_burch(PrimeField(32003), 2, 0)
    if name == "eagon_northcott_draw0":
        return eagon_northcott(PrimeField(32003), 0)
    return generic_koszul(PrimeField(32003), 3, 1, 0)


@pytest.mark.parametrize("name", sorted(ROUND_THREE))
def test_round_three_of_iterate_is_pinned(tmp_path, name):
    # three rounds of ``iterate``: each round transforms the last output
    comp, sop = _instance(name)
    third = None
    for _ in range(3):
        third = star_transform(third.star.complex if third else comp, sop)
        assert third.report.overall
    digest, ranks = ROUND_THREE[name]
    assert [m.rank for m in third.star.complex.modules] == ranks
    base = ProblemFile(comp.ring, tuple(format_polynomial(g) for g in sop.gens), comp)
    path = tmp_path / "round3.json"
    emit_star(third.star, None, str(path), base, third.input_complex)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
