import gc
import hashlib
import json
import random
import tracemalloc

import pytest

from semival.content import content_pairs
from semival.dvs import standard_dvs_structures
from semival.extended import _nonnegative
from semival.fracfield import extend_valuation
from semival.instances import ALL_REGISTERED_IDS, get_instance
from semival.laws import check_semiring_axioms
from semival.reports import SampleSpec
from semival.sampling import pair_stream, stream, triple_stream
from semival.semiring import Element
from semival.valuation import REGISTERED_VALUATIONS, get_valuation


def test_identical_specs_yield_identical_streams():
    for sid in ALL_REGISTERED_IDS:
        inst = get_instance(sid)
        spec = SampleSpec(11, 60, 9)
        first = stream(inst, spec)
        second = stream(inst, spec)
        assert len(first) == len(second) == 60
        assert all(inst._eq(a, b) for a, b in zip(first, second))
        shifted = stream(inst, SampleSpec(12, 60, 9))
        assert not all(inst._eq(a, b) for a, b in zip(first, shifted)), sid


def test_streams_start_with_the_preamble():
    lau = get_instance("laurent(nat)")
    head = stream(lau, SampleSpec(1, 10, 5))[: len(lau.preamble)]
    assert all(lau._eq(a, b) for a, b in zip(head, lau.preamble))
    one_plus_x = lau.add(lau.one, lau.indeterminate()).payload
    assert any(lau._eq(p, one_plus_x) for p in head)


def test_pair_stream_counts_and_determinism():
    nat = get_instance("nat")
    spec = SampleSpec(3, 80, 10)
    pairs = list(pair_stream(nat, spec))
    assert len(pairs) == 80
    assert pairs == list(pair_stream(nat, spec))


def test_filtered_streams_respect_the_filter():
    qnn = get_instance("qnn")
    out = stream(qnn, SampleSpec(1, 50, 12), keep=lambda p: p != 0)
    assert len(out) == 50
    assert 0 not in out


@pytest.mark.parametrize("sid", ALL_REGISTERED_IDS)
def test_streams_yield_canonical_payloads(sid):
    inst = get_instance(sid)
    spec = SampleSpec(5, 40, 12)
    items = [*inst.preamble, *stream(inst, spec, salt="canon"),
             *(p for pair in pair_stream(inst, spec) for p in pair),
             *(p for triple in triple_stream(inst, spec) for p in triple)]
    for p in items:
        assert not isinstance(p, Element)
        assert inst._canon(p) == p, (sid, inst._text(p))


def test_a_holding_sampled_check_builds_no_element_per_draw(monkeypatch):
    # 1000 triples of poly(nat) hold the axioms; only a witness is wrapped
    inst = get_instance("poly(nat)")
    built = []
    init = Element.__init__
    monkeypatch.setattr(Element, "__init__",
                        lambda self, *args: built.append(1) or init(self, *args))
    assert check_semiring_axioms(inst, SampleSpec(1, 1000, 50)).holds
    assert len(built) <= 4


# sha256 (first 16 hex digits) of the element texts of every stream the law
# checks draw at the CLI defaults, recorded before the payload-level
# sampling rewrite; a faster generator must reproduce them exactly
STREAM_DIGESTS = {
    1: {
        "nat axioms": "21e9c85b999c99e4",
        "nat mc": "e11ae9c7db26c339",
        "nat entire": "6777cb4a85c4308b",
        "qnn axioms": "b1dd8e179f650de9",
        "qnn mc": "4f52342d8fd7763d",
        "qnn entire": "e6333ba19193aa2d",
        "bool-poly axioms": "04e5542406267424",
        "bool-poly mc": "21b9f03a0d8624d5",
        "bool-poly entire": "0068ad96e33576a2",
        "fuzzy axioms": "0015be109d135758",
        "fuzzy mc": "a1ea6413d6eaeec6",
        "fuzzy entire": "66d11b8af2bb4ef1",
        "tropical-nat axioms": "3416327ca4011558",
        "tropical-nat mc": "a77e00bb3a86c161",
        "tropical-nat entire": "8bafede849e4108f",
        "tropical-int axioms": "1480142fac1cae1a",
        "tropical-int mc": "da4e89eacaa6df15",
        "tropical-int entire": "a8e81a292ed3ff20",
        "ideals-z axioms": "97af3716fea74268",
        "ideals-z mc": "f123d650d9c9074b",
        "ideals-z entire": "606d3e1083de0a94",
        "poly(nat) axioms": "241f1cc3b240f350",
        "poly(nat) mc": "53c73cb0fe6b3c42",
        "poly(nat) entire": "e573b530226d44b7",
        "laurent(nat) axioms": "57f98f56e0724705",
        "laurent(nat) mc": "c0f9784386ec7ff7",
        "laurent(nat) entire": "6d3fa68ba5671233",
        "monoid(nat,N0) axioms": "47324e56d82148c2",
        "monoid(nat,N0) mc": "46e312386d23cb17",
        "monoid(nat,N0) entire": "56a65f1d98440efb",
        "monoid(nat,Z) axioms": "bcc26ea6be449890",
        "monoid(nat,Z) mc": "403e31ef0bc43d6c",
        "monoid(nat,Z) entire": "93f1d041736404bb",
        "monoid(nat,Q) axioms": "8a208f8fee7dd870",
        "monoid(nat,Q) mc": "f6cd331e74f8aa51",
        "monoid(nat,Q) entire": "9825fa31c9be9501",
        "fractions(nat) axioms": "6e54d7e69560f66e",
        "fractions(nat) mc": "e3918ea67c5a50da",
        "fractions(nat) entire": "ecd5df14ecf0746d",
        "fractions(poly(nat)) axioms": "aae603ff4c1003c7",
        "fractions(poly(nat)) mc": "653ab3062ee424e0",
        "fractions(poly(nat)) entire": "9da125342174be5b",
        "fractions(ideals-z) axioms": "001bbff455ce9228",
        "fractions(ideals-z) mc": "bd65c311ef7b879f",
        "fractions(ideals-z) entire": "23976076a8483eef",
        "trivial@qnn vax": "b4a454cd48a0c65e",
        "trivial@qnn minp": "84cd00c6ea08de1d",
        "trivial@qnn uz": "28d6baa9ccc80f56",
        "trivial@qnn ext-vax": "146686890951c55b",
        "vp:5@nat vax": "b0315934ad079f03",
        "vp:5@nat minp": "c65fd538d3d03139",
        "vp:5@nat uz": "efad7258dbd8307c",
        "vp:5@nat ext-vax": "32f9b77fda8a0bd2",
        "vp:5@qnn vax": "9ff71ccb3f8a70cc",
        "vp:5@qnn minp": "265beff62ebd5034",
        "vp:5@qnn uz": "9f44c1d7a803e16d",
        "vp:5@qnn ext-vax": "7b797eda6f531b33",
        "low-order@poly(nat) vax": "384e39241ac3949b",
        "low-order@poly(nat) minp": "6b0585405592c04e",
        "low-order@poly(nat) uz": "098d7f956205f54c",
        "low-order@poly(nat) ext-vax": "4a0b5adfae5d8860",
        "low-order@laurent(nat) vax": "31f5d60fa841e91d",
        "low-order@laurent(nat) minp": "2e750ed76cbfba2d",
        "low-order@laurent(nat) uz": "d7992f86ec47b7ef",
        "low-order@laurent(nat) ext-vax": "4d6c055ddd95a996",
        "low-order@monoid(nat,N0) vax": "370925a22e2e9067",
        "low-order@monoid(nat,N0) minp": "6f78610efaa3ce10",
        "low-order@monoid(nat,N0) uz": "b9b67fcae34e5ea8",
        "low-order@monoid(nat,N0) ext-vax": "0496136aa625c19c",
        "deg-high@laurent(nat) vax": "d4e4d26db12f3612",
        "deg-high@laurent(nat) minp": "2540b45b9ec239c4",
        "deg-high@laurent(nat) uz": "e935b6140d691501",
        "deg-high@laurent(nat) ext-vax": "bdbc9a7dd183237f",
        "tropical-id@tropical-nat vax": "1d81690171bfb139",
        "tropical-id@tropical-nat minp": "ed2bcbe64a5a18c7",
        "tropical-id@tropical-nat uz": "bf94c0d70e79e8c1",
        "tropical-id@tropical-nat ext-vax": "2572e9bb04e2c5b9",
        "tropical-id@tropical-int vax": "c33b10d79887bf89",
        "tropical-id@tropical-int minp": "6a54840b5c2eb71a",
        "tropical-id@tropical-int uz": "d4bbefd0d1168637",
        "tropical-id@tropical-int ext-vax": "0d6539ed7a8ad032",
        "deg-frac@fractions(poly(nat)) vax": "e7335c59785eda91",
        "deg-frac@fractions(poly(nat)) minp": "611bf6504a10e564",
        "deg-frac@fractions(poly(nat)) uz": "bd75f908c1b042d1",
        "deg-frac@fractions(poly(nat)) ext-vax": "39a3635acc2d6400",
        "vm-idz:5@fractions(ideals-z) vax": "ab100721c6ebbfa1",
        "vm-idz:5@fractions(ideals-z) minp": "0bb19456917f21f2",
        "vm-idz:5@fractions(ideals-z) uz": "93876ea2162abad6",
        "vm-idz:5@fractions(ideals-z) ext-vax": "d2108f8240be8d31",
    },
    123456789: {
        "nat axioms": "d454d6f270a972d7",
        "nat mc": "36d3864df3a9a87a",
        "nat entire": "a9834f4c5d77ef82",
        "qnn axioms": "d5905834f3a3519f",
        "qnn mc": "3ac4394308f24cbc",
        "qnn entire": "e98b4fd91eacbc67",
        "bool-poly axioms": "2f71680da84e7593",
        "bool-poly mc": "f27771841ebd53eb",
        "bool-poly entire": "deb62d23c4f2070c",
        "fuzzy axioms": "f2d40f8b10cf9e41",
        "fuzzy mc": "caa9adec47f7a14b",
        "fuzzy entire": "45d2aac6a9906505",
        "tropical-nat axioms": "9d4ea3a53ebed3b8",
        "tropical-nat mc": "839db26163806ce1",
        "tropical-nat entire": "dcf5e736e1bb96db",
        "tropical-int axioms": "dd69c4c37d2c8695",
        "tropical-int mc": "a020d45b0397a756",
        "tropical-int entire": "faf150f66b17c757",
        "ideals-z axioms": "24a4a4970abfe83c",
        "ideals-z mc": "8a22191c2fcd7f68",
        "ideals-z entire": "a81f7138712f62b6",
        "poly(nat) axioms": "bdbdd9aaf7c8baf9",
        "poly(nat) mc": "ee850cf84822f430",
        "poly(nat) entire": "23f4b714f114a77c",
        "laurent(nat) axioms": "e519b4e3bf7c38b4",
        "laurent(nat) mc": "ca09c5b6fa164660",
        "laurent(nat) entire": "b5f33a39bd647f6b",
        "monoid(nat,N0) axioms": "5bb5aa7a4288f95c",
        "monoid(nat,N0) mc": "357e8610525cf469",
        "monoid(nat,N0) entire": "f9b01c1ddaa4f0b4",
        "monoid(nat,Z) axioms": "f1e5b951d5325096",
        "monoid(nat,Z) mc": "ac1f7b222a835c1b",
        "monoid(nat,Z) entire": "24b96a818916a256",
        "monoid(nat,Q) axioms": "bc47f15ae439031e",
        "monoid(nat,Q) mc": "81f61b1ec91290c2",
        "monoid(nat,Q) entire": "1c1107582a3f4203",
        "fractions(nat) axioms": "dd09253dc41141c3",
        "fractions(nat) mc": "8dce881c5cb95865",
        "fractions(nat) entire": "ce09218e0b8fd58d",
        "fractions(poly(nat)) axioms": "117bfa5a5dba8bf0",
        "fractions(poly(nat)) mc": "163c88e227b0c477",
        "fractions(poly(nat)) entire": "922ba76dab0dfaa2",
        "fractions(ideals-z) axioms": "af6ed2dd5c529b80",
        "fractions(ideals-z) mc": "07b14f3b0ecb5b86",
        "fractions(ideals-z) entire": "97a30318183153f2",
        "trivial@qnn vax": "86a41f458827284a",
        "trivial@qnn minp": "dd22c591f3ddf95a",
        "trivial@qnn uz": "0792d61048f32639",
        "trivial@qnn ext-vax": "b0a0dfb3f48b99e6",
        "vp:5@nat vax": "ebc562009aae88cb",
        "vp:5@nat minp": "8010ed76f7409b94",
        "vp:5@nat uz": "58636f41d81af6f8",
        "vp:5@nat ext-vax": "309a264d192108c3",
        "vp:5@qnn vax": "44377ee8dc41e038",
        "vp:5@qnn minp": "e5953569ecb5792d",
        "vp:5@qnn uz": "c2e5cac0b4bcbab0",
        "vp:5@qnn ext-vax": "1e24db1b4f08a154",
        "low-order@poly(nat) vax": "d1d32c90b8f6d534",
        "low-order@poly(nat) minp": "41856259096d9ea8",
        "low-order@poly(nat) uz": "d82ab067370f14fd",
        "low-order@poly(nat) ext-vax": "0fa2c6dca24e95ed",
        "low-order@laurent(nat) vax": "d5168f45f55b3fe2",
        "low-order@laurent(nat) minp": "1a729417d54e916a",
        "low-order@laurent(nat) uz": "ba0e3e4dd9bc57a6",
        "low-order@laurent(nat) ext-vax": "ff35505cda38f11e",
        "low-order@monoid(nat,N0) vax": "ebbec2ed08aa3045",
        "low-order@monoid(nat,N0) minp": "b6e41c4fc02621ab",
        "low-order@monoid(nat,N0) uz": "142b253aa3e02788",
        "low-order@monoid(nat,N0) ext-vax": "4403e26c54d59527",
        "deg-high@laurent(nat) vax": "54a3c286ae280d50",
        "deg-high@laurent(nat) minp": "5b0dcf22bb6d2601",
        "deg-high@laurent(nat) uz": "7b62ba78ee208dde",
        "deg-high@laurent(nat) ext-vax": "49d7e57b3c962b93",
        "tropical-id@tropical-nat vax": "3694cb59eeea7f33",
        "tropical-id@tropical-nat minp": "fb99baf77c6c1b94",
        "tropical-id@tropical-nat uz": "8df3069bd3e48aa5",
        "tropical-id@tropical-nat ext-vax": "a6f715c0b0a2c776",
        "tropical-id@tropical-int vax": "db60e916f61db5ea",
        "tropical-id@tropical-int minp": "2f410a86bb2dea6f",
        "tropical-id@tropical-int uz": "1daeb74c24ead12c",
        "tropical-id@tropical-int ext-vax": "cc49e44f701b155b",
        "deg-frac@fractions(poly(nat)) vax": "15b0d4bb1596c7f4",
        "deg-frac@fractions(poly(nat)) minp": "21977e9adf7d8a38",
        "deg-frac@fractions(poly(nat)) uz": "7422aa36fdee30b6",
        "deg-frac@fractions(poly(nat)) ext-vax": "18d550c71e961ec4",
        "vm-idz:5@fractions(ideals-z) vax": "9615dfc9e43baf4a",
        "vm-idz:5@fractions(ideals-z) minp": "dfee83a8c110628e",
        "vm-idz:5@fractions(ideals-z) uz": "ed1a179652171525",
        "vm-idz:5@fractions(ideals-z) ext-vax": "61c3327233a1392c",
    },
}
# sha256 (first 16 hex digits) of the content pairs at SampleSpec(1, 50, 50),
# on nat, ideals-z and the carriers of the four standard structures
CONTENT_PAIRS_DIGESTS = {
    "nat": "b7c8e7f33f03803e",
    "ideals-z": "fc4f58b6a395d70f",
    "qnn at 5": "e648dac22fd387b1",
    "tropical naturals": "07a3a857543da1a1",
    "degree-bounded fractions": "c9e7d7b9f43f3aa1",
    "integer ideals at (5)": "90298f209af46322",
}
# sha256 (first 16 hex digits) of 200 Semiring.sample draws at bound 50 per
# id, all ids in registry order on one shared rng, recorded before streams
# drew through prebuilt samplers
SAMPLE_DIGESTS = {
    "nat": "b51726738c972314",
    "qnn": "c94160b1b67aa3da",
    "bool-poly": "9c0f6991fa6c4981",
    "fuzzy": "e3ec4a84a78b263c",
    "tropical-nat": "a42fe8a016a013a4",
    "tropical-int": "d08b46133ae3b516",
    "ideals-z": "526a6f173cb1740a",
    "poly(nat)": "020b886b65b6be5c",
    "laurent(nat)": "581404c360545ed3",
    "monoid(nat,N0)": "bf7fb02869a54880",
    "monoid(nat,Z)": "0186b224d91ec6f1",
    "monoid(nat,Q)": "545fe05df0cbefb6",
    "fractions(nat)": "fa19c181c7048fba",
    "fractions(poly(nat))": "0555b0be340ab957",
    "fractions(ideals-z)": "bf7eeb681d432d93",
}


def _digest(rows, text=str) -> str:
    """Digest of the texts of rows; payload rows pass their instance's _text,
    which is how an Element of each payload prints."""
    texts = [[text(x) for x in row] for row in rows]
    return hashlib.sha256(json.dumps(texts).encode()).hexdigest()[:16]


def _law_stream_digests(spec: SampleSpec) -> dict[str, str]:
    """One digest per (sid, salt): the streams of check_semiring_axioms,
    probe_mc_entire, check_valuation_axioms (also on the extension to
    fractions), check_min_property and units_vs_zeroset."""
    out = {}
    for sid in ALL_REGISTERED_IDS:
        inst = get_instance(sid)
        text = inst._text
        out[f"{sid} axioms"] = _digest(triple_stream(inst, spec, salt="axioms"), text)
        out[f"{sid} mc"] = _digest(triple_stream(inst, spec, salt="mc"), text)
        out[f"{sid} entire"] = _digest(pair_stream(inst, spec, salt="entire"), text)
    for rule, sid in REGISTERED_VALUATIONS:
        v = get_valuation(rule, get_instance(sid))
        src, text = v.source, v.source._text
        out[f"{rule}@{sid} vax"] = _digest(pair_stream(src, spec, salt=f"vax:{rule}"),
                                           text)
        out[f"{rule}@{sid} minp"] = _digest(pair_stream(src, spec, salt=f"minp:{rule}"),
                                            text)
        kept = stream(src, spec, salt=f"uz:{rule}",
                      keep=lambda p: _nonnegative(v.payload_fn(p)))
        out[f"{rule}@{sid} uz"] = _digest(((p,) for p in kept), text)
        ext = extend_valuation(v)
        out[f"{rule}@{sid} ext-vax"] = _digest(
            pair_stream(ext.source, spec, salt=f"vax:{ext.rule}"), ext.source._text)
    return out


@pytest.mark.parametrize("seed", sorted(STREAM_DIGESTS))
def test_law_streams_match_recorded_digests(seed):
    got = _law_stream_digests(SampleSpec(seed, 1000, 50))
    assert got == STREAM_DIGESTS[seed]


def test_content_pairs_match_recorded_digest():
    carriers = {sid: get_instance(sid) for sid in ("nat", "ideals-z")}
    carriers.update((D.name, D) for D in standard_dvs_structures())
    got = {}
    for name, carrier in carriers.items():
        pairs = content_pairs(carrier, SampleSpec(1, 50, 50))
        assert len(pairs) == 50
        got[name] = _digest(pairs)
    assert got == CONTENT_PAIRS_DIGESTS


def test_samples_on_a_shared_rng_match_recorded_digests():
    rng = random.Random(20261019)
    got = {}
    for sid in ALL_REGISTERED_IDS:
        inst = get_instance(sid)
        got[sid] = _digest((inst.sample(rng, 50),) for _ in range(200))
    assert got == SAMPLE_DIGESTS


def test_drawn_streams_are_not_retained():
    # a cache of drawn streams would keep the 150 streams these checks draw,
    # over 20 MB, after every check had returned
    inst = get_instance("poly(nat)")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for seed in range(50):
            check_semiring_axioms(inst, SampleSpec(1000 + seed, 1000, 50))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1_000_000


# The carrier streams of criteria 6, 11 and 12 at the suite's salts and
# specs, (salt, spec, nonzero), on each of the four standard structures.
CARRIER_STREAMS = (
    ("ideals", SampleSpec(1, 120, 12), True),
    ("nf", SampleSpec(1, 10_000, 50), True),
    ("div-a", SampleSpec(1, 10_000, 50), False),
    ("div-b", SampleSpec(1, 10_000, 50), True),
    ("chain", SampleSpec(1, 1000, 50), True),
    ("cyclic-x", SampleSpec(1, 1000, 50), True),
    ("cyclic-y", SampleSpec(1, 25, 50), False),
    ("inside", SampleSpec(1, 100, 50), True),
)
# sha256 (first 16 hex digits) of each carrier stream's element texts, and
# of criterion 11's stream of nonzero elements outside the 5-adic carrier,
# recorded before the carrier filter ran on payloads
CARRIER_DIGESTS = {
    "qnn at 5 ideals": "afbc5f3e22cfaff1",
    "qnn at 5 nf": "4ef13c989bff2343",
    "qnn at 5 div-a": "d6321750ab07fd10",
    "qnn at 5 div-b": "111d8341a8371452",
    "qnn at 5 chain": "0c3e6dd749c55eda",
    "qnn at 5 cyclic-x": "fa13d9baab9367c4",
    "qnn at 5 cyclic-y": "01a2777424af544f",
    "qnn at 5 inside": "67db2d14e3527c51",
    "tropical naturals ideals": "fcf33d275bc2f596",
    "tropical naturals nf": "57d7408d56f471d1",
    "tropical naturals div-a": "9ac7f1509d0b6ddf",
    "tropical naturals div-b": "8fe2edc22908d24c",
    "tropical naturals chain": "8d8e48354341ccf6",
    "tropical naturals cyclic-x": "929ad62f98a1ceb6",
    "tropical naturals cyclic-y": "16e7a2f97a1e1f24",
    "tropical naturals inside": "547c4896c975a7f7",
    "degree-bounded fractions ideals": "33a61b0c7d55e87d",
    "degree-bounded fractions nf": "048a2fc89b109f50",
    "degree-bounded fractions div-a": "47aa8d18ce665a70",
    "degree-bounded fractions div-b": "1d3b7f76248a76b9",
    "degree-bounded fractions chain": "80014a20767773bd",
    "degree-bounded fractions cyclic-x": "99861d7d0e074b3e",
    "degree-bounded fractions cyclic-y": "9be0a2e5e19c6be5",
    "degree-bounded fractions inside": "ff15bf292c2a34a7",
    "integer ideals at (5) ideals": "eb418a14daa7b68f",
    "integer ideals at (5) nf": "72fee995b3038fe2",
    "integer ideals at (5) div-a": "bbefd0e4b7d5a4e2",
    "integer ideals at (5) div-b": "ec9e2e2c41e96d15",
    "integer ideals at (5) chain": "0a54adfdf4ba79a1",
    "integer ideals at (5) cyclic-x": "fdf89a575d303492",
    "integer ideals at (5) cyclic-y": "ce407a8f608c07b3",
    "integer ideals at (5) inside": "e8dcb78c759aadcb",
    "qnn at 5 outside": "7497197c526a9e50",
}


def test_carrier_streams_match_recorded_digests():
    got = {}
    structures = standard_dvs_structures()
    for D in structures:
        for salt, spec, nonzero in CARRIER_STREAMS:
            xs = D.sample_carrier(spec, salt=salt, nonzero=nonzero)
            assert len(xs) == spec.count, (D.name, salt)
            got[f"{D.name} {salt}"] = _digest((x,) for x in xs)
    D = structures[0]
    outside = stream(D.ambient, SampleSpec(1, 100, 50), salt="outside",
                     keep=lambda p: p != 0 and not D.in_carrier(p))
    got["qnn at 5 outside"] = _digest(((p,) for p in outside), D.ambient._text)
    assert got == CARRIER_DIGESTS
