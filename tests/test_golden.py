"""Golden digests of the corpus outputs.

For every ``instances.corpus()`` instance this pins the SHA-256 of the bytes
``emit_star`` writes (no report block, so no timings) and of the reduced
bases of Im phi_1 and of the colon M :_{F_0} Q (their ``repr``).  A change
to the Groebner engine that alters a basis, a transformation row, a witness
or an emitted byte fails here.
"""

import hashlib

import pytest

from startrans import instances, star_transform
from startrans.modules import colon
from startrans.poly import format_polynomial
from startrans.problemfile import ProblemFile, emit_star

# name: (emit_star bytes, repr(image_gb(1)), repr(colon))
GOLDEN = {
    "exa": (
        "330bd7c849740c8b3e63f954b16a0bef366f3a45d2bd56f9fa135b9191ee0467",
        "2e2cd759caf8f645e8460520d0fb9fefb769ee6c8ba51d40d0514744f61be83f",
        "ec63351904ce2fe84e4f5bd058bbd443b9232aa40b5dd82536acb1ac238793b8",
    ),
    "ci3": (
        "99f5c1890560bdec44c7cfd2167dbacfc1d03c637a92437f1ece83e946905964",
        "afca9f5002075bb5447a23da100c74c466e1567fea0810b69119b6a7d63b7570",
        "f08df09f8adbe7d567eb91fb4f792895c9ec7985973705327b93564717fa4f69",
    ),
    "vanishing_top": (
        "5845c65471e1cd9ab64c169dca9b2b3d62a7ff7131ff5ea14466ddd1a43513f8",
        "ea080cdf62054cf1120f4ba59b3e8366734cbdcedd4c1d042453ddfbb6d9dc48",
        "f8481d428b348cda6e4f606c5fddb2e18c116d03301b7328f476787d97fc3fd7",
    ),
    "square_ideal": (
        "bdb20645ffb6b30bca3e77a890ed7ce97d4488242356fe23f37d5ec810f1f298",
        "ec63351904ce2fe84e4f5bd058bbd443b9232aa40b5dd82536acb1ac238793b8",
        "ea080cdf62054cf1120f4ba59b3e8366734cbdcedd4c1d042453ddfbb6d9dc48",
    ),
    "direct_sum": (
        "74e72c5425b88293976d66f4359e8b8abb37ba01e9eb94c83f8f3c06da9f7fc1",
        "b83e16f989276da7d8d2a16b6fb216cc30aa70ddbe31b9dd9267a2123a4fbe7e",
        "d620f3fa25c2fa801b01ab99c83fc120da96b97c191878a6c9521ea50259151f",
    ),
    "random_seed2024_n3_sop133_gen233": (
        "979b2d8aa71779a70018eef563d68642661c2d5978be83d160eb482678e48244",
        "76a4d80e336d58fbae7180c0b51596519fce45bd243965ee3d445e9cf1ed10f3",
        "910f8a3e18d26525f858081c4f19c9b26fea01093237c997aacd44b88aacf02f",
    ),
    "random_seed2025_n2_sop32_gen32": (
        "b786799f2ddd0540e7dfc390bccb2a41c0cd8c1ea657f3b98ab70c95a2e4a387",
        "562fa7f8cf7f5c596d719bb583fe4cbd8a7861dae0912cf9a107d827698eb0a3",
        "f8481d428b348cda6e4f606c5fddb2e18c116d03301b7328f476787d97fc3fd7",
    ),
    "random_seed2026_n2_sop23_gen23": (
        "4b2d53858ef11e46ca7b5f5e390955b83a218aa05c1db044352b203bdedea1e0",
        "72a25a70d320473ce1109520fddb09b9ab71a14b7f8f745fa2d0d34c615319e5",
        "f8481d428b348cda6e4f606c5fddb2e18c116d03301b7328f476787d97fc3fd7",
    ),
    "random_seed2027_n2_sop21_gen23": (
        "a1b6390e4d0c2934f12bc6c9b45cfb2d401943c5795d3c99ef285abe47fb3d31",
        "72a25a70d320473ce1109520fddb09b9ab71a14b7f8f745fa2d0d34c615319e5",
        "2e2cd759caf8f645e8460520d0fb9fefb769ee6c8ba51d40d0514744f61be83f",
    ),
    "random_seed2028_n3_sop131_gen232": (
        "0c140614a946c4af62466cae1f77b673c30ca6ac283ceab715c2ba947ed9e222",
        "5cb3f177bde6e6788baae16fd6b8879fae10427ca7e7ac3ad4425da599206098",
        "f1a3efef8192318ca65cd38f270529ad57180740be80c84ce2e436a9d9f5bf45",
    ),
    "random_seed2029_n3_sop213_gen233": (
        "67ccd790278e4828146f3288572f0b90a7f3113aff72ff3c3ae93a8443d20b50",
        "76a4d80e336d58fbae7180c0b51596519fce45bd243965ee3d445e9cf1ed10f3",
        "051bac065f533139a44930987c7cdfee235f24dcdf54429508a75fdb79d15b1f",
    ),
    "random_seed2030_n3_sop223_gen233": (
        "20ca39fe326805138703de6df2b2d984e9f4be7269ba28e571c83293a4a85d75",
        "76a4d80e336d58fbae7180c0b51596519fce45bd243965ee3d445e9cf1ed10f3",
        "593306ebb31cfe9d257eb794952f6f135d0be6cf93518914007ba2881d9b770f",
    ),
    "random_seed2031_n2_sop22_gen33": (
        "b3067bf4d6caaaa0cf8f8fd44228968cbf601d492c9c0f7e8578d443c0266289",
        "7d0403356776174895d5122fb0739449686c738e0c8136d7a034f77054a9beda",
        "f37b1c1158811495d65e462bc45c4bb6427b288f238a873948758cc3d9e7a16b",
    ),
    "random_seed2032_n2_sop33_gen33": (
        "f17b40b49bc962ea65b00e63b10adbc4201d37e9590c3848e5bc273c321913ba",
        "7d0403356776174895d5122fb0739449686c738e0c8136d7a034f77054a9beda",
        "f8481d428b348cda6e4f606c5fddb2e18c116d03301b7328f476787d97fc3fd7",
    ),
    "random_seed2033_n3_sop112_gen332": (
        "9b8d20aeb46396113f58b9d2d599b71cebf0d9102ef0748efe5fe7e3950ddd27",
        "8e416e0af83218d8ffe9aac4197b7f68d2f87650130bd916e4e649422ede2d99",
        "588093c5a46a0f2211f381c5d8417d306272d05d9dda9fac86f1f7d6844a7f62",
    ),
    "random_seed2034_n2_sop22_gen22": (
        "bf8342fc13e1e6958588350c1d12a62465d9e0b07921a3c55ef80c6f06d4b139",
        "2e2cd759caf8f645e8460520d0fb9fefb769ee6c8ba51d40d0514744f61be83f",
        "f8481d428b348cda6e4f606c5fddb2e18c116d03301b7328f476787d97fc3fd7",
    ),
    "random_seed2035_n3_sop111_gen232": (
        "6728299b4e55bcad845524dc2ecfb69c02fd27e68f4e0e8d9d54e84f6502c4db",
        "5cb3f177bde6e6788baae16fd6b8879fae10427ca7e7ac3ad4425da599206098",
        "ea975daa5fd4a28da3764dc02d4d77a57f115bd40483cca3b4f39597e0fbf8d6",
    ),
    "random_seed2036_n2_sop33_gen33": (
        "f17b40b49bc962ea65b00e63b10adbc4201d37e9590c3848e5bc273c321913ba",
        "7d0403356776174895d5122fb0739449686c738e0c8136d7a034f77054a9beda",
        "f8481d428b348cda6e4f606c5fddb2e18c116d03301b7328f476787d97fc3fd7",
    ),
    "random_seed2037_n3_sop312_gen312": (
        "060a7c3cb45f5d37ea0ccc3489f21a1ac69cde4ed2d53cf117b7d8db94ca51f6",
        "3b5cad27b72da78764ea0d38f584eb21162d56aa02b4ec8c8dffa8b9b772da08",
        "f8481d428b348cda6e4f606c5fddb2e18c116d03301b7328f476787d97fc3fd7",
    ),
    "random_seed2038_n2_sop21_gen23": (
        "a1b6390e4d0c2934f12bc6c9b45cfb2d401943c5795d3c99ef285abe47fb3d31",
        "72a25a70d320473ce1109520fddb09b9ab71a14b7f8f745fa2d0d34c615319e5",
        "2e2cd759caf8f645e8460520d0fb9fefb769ee6c8ba51d40d0514744f61be83f",
    ),
    "random_seed2039_n3_sop313_gen323": (
        "339e2cac678d216ade9e5b6610cf7558a6ae7e3bc5688964cbc8d08e27b86b87",
        "090f51bf381f0be410325812a04317cf5efe6f8320d87fc64b2c413e54b6579f",
        "fa42ca791619344d97b1a95539e6ff93f01c013795ebd30d7fc51d820e3ce4af",
    ),
    "random_seed2040_n3_sop323_gen333": (
        "0231d7b4f8a36e29acc911e817cc169e8dcefbbb26e3008c7459bb997f298b33",
        "56c65a566b95e848ac37e942216bacd9d21870ea585b6b5fdf16a82448e32d68",
        "fa42ca791619344d97b1a95539e6ff93f01c013795ebd30d7fc51d820e3ce4af",
    ),
    "random_seed2041_n2_sop23_gen33": (
        "cf54ee029d3a620c1a86b3ebe7942940ba853b16d2a5af5fcc25d84d11015e73",
        "7d0403356776174895d5122fb0739449686c738e0c8136d7a034f77054a9beda",
        "2509b30146c2cba8a870f3adaa958dd4a56be91faa5f062e6af482902842caca",
    ),
    "random_seed2042_n3_sop313_gen323": (
        "339e2cac678d216ade9e5b6610cf7558a6ae7e3bc5688964cbc8d08e27b86b87",
        "090f51bf381f0be410325812a04317cf5efe6f8320d87fc64b2c413e54b6579f",
        "fa42ca791619344d97b1a95539e6ff93f01c013795ebd30d7fc51d820e3ce4af",
    ),
    "random_seed2043_n3_sop313_gen313": (
        "47157ebf8effc91db0e360ca75e04f62d45a21daab4eec26af501c17852b81bb",
        "fa42ca791619344d97b1a95539e6ff93f01c013795ebd30d7fc51d820e3ce4af",
        "f8481d428b348cda6e4f606c5fddb2e18c116d03301b7328f476787d97fc3fd7",
    ),
}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def test_golden_covers_the_whole_corpus():
    assert [name for name, _, _ in instances.corpus()] == list(GOLDEN)


@pytest.mark.parametrize(
    "name,comp,sop", instances.corpus(), ids=[n for n, _, _ in instances.corpus()]
)
def test_corpus_outputs_match_golden(tmp_path, name, comp, sop):
    star = star_transform(comp, sop, with_report=False).star
    base = ProblemFile(
        comp.ring, tuple(format_polynomial(g) for g in sop.gens), comp
    )
    path = tmp_path / "star.json"
    emit_star(star, None, str(path), base, comp)
    m_gb = comp.image_gb(1)
    got = (
        _sha(path.read_bytes()),
        _sha(repr(m_gb).encode()),
        _sha(repr(colon(m_gb, sop.gens)).encode()),
    )
    assert got == GOLDEN[name]
