"""Report digests pinned on the shipped fixtures and on a seeded corpus.

A refactor of the criteria must leave every verdict, rank and evidence
item as it was; the report digest covers all of them, so these pins
catch any change to what a check reports.
"""

import hashlib
from math import comb

import numpy as np

from waringcert import Instance, PointSet, PrimeContext, run_criteria
from waringcert.octic14 import MODES
from waringcert.points import _canonical_point
from waringcert.storage import build_report, canonical_json, instance_to_obj, load_instance

from conftest import FIXTURES

SELECTORS = ("all", "range", "ranger", "kruskal", "octic14")


def report_digest(inst, selector, mode, input_digest, metadata=None) -> str:
    final, results = run_criteria(inst, criteria=selector, mode=mode)
    return build_report(final, results, flags={"mode": mode, "criteria": selector},
                        input_digest=input_digest, input_metadata=metadata)["digest"]


def fixture_report_digests() -> dict[str, str]:
    out = {}
    for path in sorted(FIXTURES.glob("*.json")):
        inst, metadata, digest = load_instance(path)
        for selector in SELECTORS:
            for mode in MODES:
                out[f"{path.stem}/{selector}/{mode}"] = report_digest(
                    inst, selector, mode, digest, metadata)
    return out


def distinct_points(ctx, rng, count, n):
    """count pairwise distinct points of P^n(F_p), drawn at random; the
    caller keeps count within the number of points of P^n(F_p)."""
    seen, pts = set(), []
    while len(pts) < count:
        pt = tuple(int(c) for c in rng.integers(0, ctx.p, size=n + 1))
        if any(pt) and (key := _canonical_point(pt, ctx.p)) not in seen:
            seen.add(key)
            pts.append(pt)
    return PointSet(ctx, pts)


def corpus():
    """Seeded instances in P^1, P^2 and P^3 at p = 7, 101 and 31991, in
    degrees 2 to 6, with up to 10 points: below and above the rank caps
    of range and ranger at odd and even degree, and redundant ones."""
    rng = np.random.default_rng(2023)
    for p in (7, 101, 31991):
        ctx = PrimeContext(p)
        for n in (1, 2, 3):
            room = sum(p ** i for i in range(n + 1))
            for d in range(2, 7):
                top = min(10, comb(n + d, n) + 1, room)
                for r in sorted({1, top, *rng.integers(1, top + 1, size=2)}):
                    ps = distinct_points(ctx, rng, int(r), n)
                    yield Instance(ps, d, rng.integers(1, p, size=int(r)))


def corpus_digest() -> tuple[int, str]:
    """(instance count, sha256 over the report digests of every instance
    under the all, range and ranger selectors)."""
    digests = []
    for inst in corpus():
        text = canonical_json(instance_to_obj(inst))
        input_digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        digests += [report_digest(inst, s, "full", input_digest)
                    for s in ("all", "range", "ranger")]
    joined = "\n".join(digests).encode("utf-8")
    return len(digests) // 3, hashlib.sha256(joined).hexdigest()


# Computed before the range and ranger criteria shared one helper.
FIXTURE_REPORT_DIGESTS = {
    "optics_T1/all/full":
        "2289bad1679552e8de7c60c05e524e7ea4e6f79cd5c4a58c65232e9d6e599b88",
    "optics_T1/all/paper13":
        "0f04973322d8624caaaf026c64dc13386ffe5600b3f91d4eaa855ad7c188a8b8",
    "optics_T1/range/full":
        "1a90b090544d7ada7fbf6c6b20fdcffe32dd92a235ce870bc52c5fc0ccf2403d",
    "optics_T1/range/paper13":
        "e2ff837691403159e7db864ab66e3d6fe249a8ee3e971f9920d4247b4fd873f0",
    "optics_T1/ranger/full":
        "791d14f8c480787467601469229111d85ebc024ca2734400333a8255dbccd60f",
    "optics_T1/ranger/paper13":
        "afee204d0b2fd7aab0b6ea4963e6fa2707e64836a5822c04770753cbdd3f8e6d",
    "optics_T1/kruskal/full":
        "1aa1791f25284d6ef885b8bdf97fa6370b526d3cef1f0987ad60e54844a295c6",
    "optics_T1/kruskal/paper13":
        "58575b1235dbfa9b6b1061cdda29fde35a943e59f320d1a4102557b5cd34bd92",
    "optics_T1/octic14/full":
        "ed43e055cebba229a5e3bfa931610852b7e2b8b08e5898d7937372bdb928722b",
    "optics_T1/octic14/paper13":
        "d6e4e713a1a9523dabbfff7fbbdf4400906918ef498599ed50a0b196d63dd836",
    "optics_T2/all/full":
        "f6beb967a97574c8f628fd1fd11d8edf49a48962bc42e651dd458501d1634e5a",
    "optics_T2/all/paper13":
        "b5816f6877b6f2fc73daa3ac1d50a0da5bcd17b3c71190ccf2cf146966c0e2a8",
    "optics_T2/range/full":
        "bdf51ac6cac3e81bb2b2ae27ea5ddb1a9b06c8e81db428d690193a1a5645c646",
    "optics_T2/range/paper13":
        "c261e7c8adbdf0c73995064143f20aecfc29cd2123ad7429f8e80cc887096037",
    "optics_T2/ranger/full":
        "4fd6c64f44e36373f806741f9f4b72a4b316e7bf7b219e51d8612e6172509b2c",
    "optics_T2/ranger/paper13":
        "c228036da1304a56af5cbceb5623c8e5777f66f852bbc962c0d084f5ee03163c",
    "optics_T2/kruskal/full":
        "9012d558b4f7a3b703b68ec80c89977733d6e865934449612e51fd3cc4b0442a",
    "optics_T2/kruskal/paper13":
        "388c8dd0616fef17b6daef57fac4c8eac7e8a3ca80cadf2708cce41d2300ce1c",
    "optics_T2/octic14/full":
        "9d7b7eb15a19780febeedd309cfb2c2d8938bdbba5d153fd2951bea824455ffd",
    "optics_T2/octic14/paper13":
        "941829b8331190dcf57004b73c79cc3fa68217072ee0b65e3a54a3df636f8103",
    "six_five_aligned/all/full":
        "14251eac1877229db8e9f94862999b74a1fded586a140fa55b68e4b079ddaa84",
    "six_five_aligned/all/paper13":
        "a793e9ea19b14592096ecd6eaccfd88eb3b9cd0bb277a364101f966dba349839",
    "six_five_aligned/range/full":
        "e62c620466bd8415154c94dd1d1242e7c39202798d9578fd93e4857e65b71a96",
    "six_five_aligned/range/paper13":
        "e5611c36ba25b06216cb3b4f74e82579518974a034f899e53e28e652905fdeef",
    "six_five_aligned/ranger/full":
        "3ec3758e861144e32f97302219c66bf46c75018829d0f3009287c3ab98efa82f",
    "six_five_aligned/ranger/paper13":
        "98fdaf02cc3b4aeb4d2087f2e3fb25aaa2c5f23a134567ab4f7adde96274c3aa",
    "six_five_aligned/kruskal/full":
        "5c3bc61749ae0190f97a9bc1474479f6d2b9ebfa7383ee681eefa2c9657c6f5e",
    "six_five_aligned/kruskal/paper13":
        "4f2e35ee33f8988a137c3e9e994ac973d87c8f21630133436725bf0e2f01aaa3",
    "six_five_aligned/octic14/full":
        "e4e9fac4bd98e0500df51aee643f5da29756c169793f3b19d0d099d8d9547a30",
    "six_five_aligned/octic14/paper13":
        "0021b092888c2a0893d952102339800072de79db133a60161ca8d52406b5e05c",
    "six_general/all/full":
        "0771a8d5292a0b96e41fb66f6c6183afba2ff8fb11a49650991dd182989117be",
    "six_general/all/paper13":
        "03ba7ff9a445c4307ea8e256f0eb54c19e0ad0e681588bff50e9a9807056bb1a",
    "six_general/range/full":
        "ccb089bfa6118d6beba0cd3efa7c3cb31fd5decfdc5e05b6ea4e0d8ef353c1a6",
    "six_general/range/paper13":
        "99f0467302fc197ef6ecb7fa6c86707bdbb4f883f57fbc51e11c7b8b78c03c92",
    "six_general/ranger/full":
        "0d593e9b795b2490653710367f7540e8419ffd1f5a6e528cc74435a44559e81f",
    "six_general/ranger/paper13":
        "8273a2eb4605a119e3ea2035f8fb9065608442eeddd05f2e09e34b449905af35",
    "six_general/kruskal/full":
        "03be21abb1de2344bfda8516ebaba0f22e2c48e4e6fd88aa0ae74ffe0902a149",
    "six_general/kruskal/paper13":
        "45813de3c33cc6e04a6130945732bd54c6376f57be840af032b4572307173447",
    "six_general/octic14/full":
        "26ee709d7223c8a0fdb5ef9ec29eb6c4b3714211f97a3ab0ff30df420c1f5555",
    "six_general/octic14/paper13":
        "7141c1701f96e6d4ed392167dbd51d24c4b0969148fc7e4f7b24aff48cd94df5",
    "six_on_conic/all/full":
        "0e1a2edb113cf6120392cb8f2293ed54b6d94557d79c06656801dff955f5a4ba",
    "six_on_conic/all/paper13":
        "d608c0e545e11171369b63fde3de5238450e6318d01dfdebc23da9929911a810",
    "six_on_conic/range/full":
        "89226483fc283c7fd3f2533017673447f1ee00dd8653035ca40e1a84c12fc3fa",
    "six_on_conic/range/paper13":
        "26c0b127c5cbfc70126e3366dd791f8938feb0ef8375b14b30db7710e50ae83e",
    "six_on_conic/ranger/full":
        "05e5bef3a5e92aa95b818b2f1e5adabd9f559a20b977df10430391fad63df3d0",
    "six_on_conic/ranger/paper13":
        "2c2175406f31fcc5572d8139bd6323e677a3f49af82312e74828d36e91a9dfb9",
    "six_on_conic/kruskal/full":
        "15e0f9a903d783593324c112968c4dc52e6ec8668112156052111792923022dc",
    "six_on_conic/kruskal/paper13":
        "b52481d7941e77257c16ea16d2df7c027af1d61b6d19bc1aae695771bf796c8d",
    "six_on_conic/octic14/full":
        "0915e2915b75491ab7dcef82162d4ad36d44940390e46021d090ecc88e109608",
    "six_on_conic/octic14/paper13":
        "bfd121c4355f90d69a58cd5da6a541a306f6b2fb27d8f6dcb79624a100bff3c3",
}

CORPUS_DIGEST = (148, "4e341a1cee7670ab432fb7b9c7ec46aa041788381d8c1fbd007f06c92788fb10")


def test_fixture_report_digests_pinned():
    assert fixture_report_digests() == FIXTURE_REPORT_DIGESTS


def test_corpus_report_digest_pinned():
    assert corpus_digest() == CORPUS_DIGEST
