"""Golden outputs: every benchmark argument vector at the default seed 1,
run in-process through the CLI, must print exactly what the recorded
digests say.  Performance changes keep outputs byte-identical, so a
digest that moves means a change in what the program computes.

The argument vectors are copied here, not imported from perfbench/, so
that a change to the benchmark cannot change this test.  A digest is the
SHA-256 of a table's CSV, or of a JSON report list with every
`wall_time_ms` removed and re-serialized with sorted keys.  A change
that means to alter an output records the new digest and says why.

The `bailey-families` argument vectors at the held-out seed 7919 are
pinned too, recorded before the Bailey families and the classical
prefactors were hoisted: they draw other rational chain, thm-general
and selftest parameters than seed 1.

The fermionic argument vectors reach the fermionic multisum outside the
benchmark: the Schur and Hall-Littlewood tables, a parametrized
identity at k = 3 with zero, negative and fractional parameters, and
thm-main at larger caps.  They were recorded while the fermionic side
was still a loop over chains, before it became the Bailey-lemma lift.

The Dynkin-data tables pin the coefficients of the Dynkin-data form
itself, which the `appx-a` reports cover only through their verdict.
They were recorded while that form still built one product chain per
block and one pair per rho leaf.  At (k, nq, nt) = (2, 14, 10) its table
is the one the other three representations print.

The product-order argument vectors reach the Bailey-family,
orthogonality and level-sum products at caps above the benchmark's: the
well-poised and ordinary conjugate relations, a depth-3 chain through
the transform, the default selftest and a k = 3 fermionic2 table.  They
were recorded while those products were still formed whole and shifted
last, their constant terms read off the whole integrand, and the
conjugate prefactor multiplied into every gamma entry.

The Pochhammer-table argument vectors reach the chain lift when its
kernel (b_i c_i q t;q)_d / (q;q)_d comes from the shared prefix tables:
a depth-3 chain and a k = 3 thm-general whose parameters all have
b_i c_i = 1, so every lift level reads one kernel table, on the base
of 1/(tq;q)_n.  They were recorded while each lift level still kept
its own running product of the kernel.

The JSON-table argument vectors pin the `--format json` text of a
coefficient table, which the CSV digests above do not reach.  They were
recorded while macdonald.py still formatted the tables and mapped the
schur and hall-littlewood modes to their substitutions.
"""

import contextlib
import hashlib
import io
import json

import pytest

from qbailey import cli

WORKLOAD_ARGVS = {
    "index-duality": [
        ["table", "--rep", "bosonic", "--k", "2", "--nq", "14", "--nt", "10"],
        ["verify", "thm-main", "--k", "2", "--nq", "16", "--nt", "12", "--json"],
        ["table", "--rep", "fermionic", "--k", "2", "--nq", "14", "--nt", "10"],
        ["verify", "multi-rr", "--k", "1", "--nq", "40", "--json"],
        ["table", "--rep", "fermionic2", "--k", "2", "--nq", "14", "--nt", "10"],
        ["verify", "thm-main", "--k", "3", "--nq", "16", "--nt", "12", "--json"],
        ["verify", "thm-kks", "--k", "2", "--nq", "12", "--nt", "10", "--json"],
        ["verify", "multi-rr", "--k", "2", "--nq", "40", "--json"],
        ["verify", "thm-kks", "--k", "1", "--nq", "12", "--nt", "10", "--json"],
        ["verify", "multi-rr", "--k", "3", "--nq", "40", "--json"],
        ["verify", "thm-main", "--k", "1", "--nq", "16", "--nt", "12", "--json"],
    ],
    "dynkin-original": [
        ["verify", "appx-a", "--k", "1", "--nq", "10", "--nt", "8", "--json"],
        ["verify", "appx-a", "--k", "2", "--nq", "7", "--nt", "6", "--json"],
        ["verify", "appx-a", "--k", "3", "--nq", "7", "--nt", "4", "--json"],
    ],
    "bailey-families": [
        ["verify", "thm-general", "--k", "2", "--b", "6/4,2/5", "--c", "5/5,6/4",
         "--nq", "8", "--nt", "8", "--json"],
        ["verify", "thm-wp", "--nmax", "3", "--nq", "6", "--nt", "6", "--ns", "4", "--json"],
        ["verify", "corollary-special", "--pair", "seed", "--nq", "8", "--nt", "8", "--json"],
        ["verify", "thm-conj-pair", "--nmax", "4", "--nq", "8", "--nt", "8", "--json"],
        ["selftest", "--seed", "1176680724", "--json"],
        ["verify", "corollary-special", "--pair", "chain(2;9/2,2/8;2/3,9/6)",
         "--nq", "8", "--nt", "8", "--json"],
    ],
    "rational-points": [
        ["verify", "appx-c", "--lmax", "4", "--nmax", "4", "--points", "16",
         "--seed", "1241640712", "--json"],
        ["verify", "lemma-b1", "--lmax", "5", "--nmax", "5", "--points", "16",
         "--seed", "942300927", "--json"],
    ],
}

DIGESTS = {
    "index-duality-0":
        "f1cdee1df836fd67063dc89f0d49b9b7c6e18ec6d0cefd3ca8d1d7fbdd331903",
    "index-duality-1":
        "65ab2088070f60503909cb5a8dcb86be57c975cdbb0d01683af5cf8421b47604",
    "index-duality-2":
        "f1cdee1df836fd67063dc89f0d49b9b7c6e18ec6d0cefd3ca8d1d7fbdd331903",
    "index-duality-3":
        "6beb1df04c1060971e83d14afa275cdd7f81ea530290d3e81542f8c09dbb72f6",
    "index-duality-4":
        "f1cdee1df836fd67063dc89f0d49b9b7c6e18ec6d0cefd3ca8d1d7fbdd331903",
    "index-duality-5":
        "f77f666d95f4bd9e633b7a3c449b3a6b4a18c4497a19042769ea079fb22d9a85",
    "index-duality-6":
        "64bc8cb7e9328dd8364f479f519cf9c1eb728f44260df37585112e96f066f40e",
    "index-duality-7":
        "19d0c9e436e9d42388fb590991af49be13942e2380750e790d218329aa964e45",
    "index-duality-8":
        "e7780406995c1c3cf42c8886951277c220c7a8b8a6105dab8b459043c30e610f",
    "index-duality-9":
        "f7dded73a24197bdb37bad9d32e1b9477d51f086f7e8c5ed09fcb4dba97ed242",
    "index-duality-10":
        "991e157686cf633bdc015d648dcde5d6157ed0e72622e7c7b27eb50cef361f54",
    "dynkin-original-0":
        "3c140901eaa16250792d9793ae78059a8ff2682d50fb0a508559200c22df2b5c",
    "dynkin-original-1":
        "68ddbc472aba61a33666e4e2e6d3f05faa49a899d47affbcb8070f0465fe0dfa",
    "dynkin-original-2":
        "84a91e9a759ef10ec353887c3f3856adb33ff220b4d7204a86e693439915cfd4",
    "bailey-families-0":
        "dc4768e4c79bfeac8eed5a33cf55d39ab6e6fc3e91ef33a7446709ff8d2133d6",
    "bailey-families-1":
        "6da28eaa89c4347cf57f4bc3e44fb0508abcc56b615ea0a71296828b41a6e58f",
    "bailey-families-2":
        "587996ba61109f491e722b57434b43eea4508d7ce363e1955d84bb79a07b87cf",
    "bailey-families-3":
        "bb4ab4f6917861dd192c763dde309356dc15f29d9e142ea829b52f3d30f9b559",
    "bailey-families-4":
        "63fe266bd8ed70f01603380d09be4ed1a5bf971151561ecb4d19c8ea18a05543",
    "bailey-families-5":
        "583c87251d45fbc651b6fe413932a149bc9b2e0b57e04c212d586884a31116d3",
    "rational-points-0":
        "ee68d4ef8006bc20f6ab4eaa500c73ee48ce7a1bfa66a1441e94d30689742119",
    "rational-points-1":
        "0331e8f390be05a89749b2caca4fa59e4b9a03268251e2bc97712161839c8ff9",
}

HELD_OUT_ARGVS = [
    ["verify", "corollary-special", "--pair", "chain(2;8/3,5/3;8/9,3/3)",
     "--nq", "8", "--nt", "8", "--json"],
    ["verify", "corollary-special", "--pair", "seed", "--nq", "8", "--nt", "8", "--json"],
    ["selftest", "--seed", "732267020", "--json"],
    ["verify", "thm-general", "--k", "2", "--b", "8/6,2/3", "--c", "6/6,9/3",
     "--nq", "8", "--nt", "8", "--json"],
    ["verify", "thm-conj-pair", "--nmax", "4", "--nq", "8", "--nt", "8", "--json"],
    ["verify", "thm-wp", "--nmax", "3", "--nq", "6", "--nt", "6", "--ns", "4", "--json"],
]

HELD_OUT_DIGESTS = [
    "91b99c89e40fc00ea6b8000dc53401c04f600d06cd0b18a6b2f9470e6fef5226",
    "587996ba61109f491e722b57434b43eea4508d7ce363e1955d84bb79a07b87cf",
    "ecf69787a0c3dfea2e887854ad088e733ee114a89570ef15ef7f2bec84f7d1f8",
    "98b8718c1690c2161ce4f6a24b68af2c29d17113846cd1990cd6f7233c7a9174",
    "bb4ab4f6917861dd192c763dde309356dc15f29d9e142ea829b52f3d30f9b559",
    "6da28eaa89c4347cf57f4bc3e44fb0508abcc56b615ea0a71296828b41a6e58f",
]

FERMIONIC_ARGVS = [
    ["table", "--rep", "schur", "--k", "2", "--nq", "10", "--nt", "10"],
    ["table", "--rep", "hall-littlewood", "--k", "2", "--nq", "10", "--nt", "10"],
    ["verify", "thm-general", "--k", "3", "--b", "0,-1/2,3/4", "--c", "2,0,-5/3",
     "--nq", "8", "--nt", "8", "--json"],
    ["verify", "thm-main", "--k", "3", "--nq", "40", "--nt", "30", "--json"],
]

FERMIONIC_DIGESTS = [
    "c2f220aed0b736bb5dd213bc3839699e9455749be46cb201ab56c7a5d45b959e",
    "7a49e433dd386513e9e9bd12df081aac12983fb43019869a41cff6b8114e3926",
    "50942d95e92dc1ea7dca047db00211f92fbe9802e2f00cd660ea1189028c5da0",
    "23de6a3b95084e3b5d1292aa1de36154c3d842e3b0f8d6bda2536f3146f0fa92",
]

DYNKIN_TABLE_ARGVS = [
    ["table", "--rep", "original", "--k", "2", "--nq", "14", "--nt", "10"],
    ["table", "--rep", "original", "--k", "3", "--nq", "10", "--nt", "8"],
    ["table", "--rep", "original", "--k", "1", "--nq", "20", "--nt", "16"],
    ["table", "--rep", "original", "--k", "6", "--nq", "14", "--nt", "10"],
    ["table", "--rep", "original", "--k", "2", "--nq", "24", "--nt", "18"],
]

DYNKIN_TABLE_DIGESTS = [
    DIGESTS["index-duality-0"],
    "a5c97e5a79dc99e7c8eedf112987826f6a38528a01819adbe37c62d567711e2a",
    "b71a39a3a74dc3f0b259bed7bafc403dd90567c1317ec08feca3b353655a3709",
    "ef0a318d3ba26e415594ce14abed8a6277b917a9618b1fa56aedda27078df8eb",
    "0a648ef2073d61b5d9f81dce98af9821406f30a13e3ee71f3c8cb530db466028",
]

PRODUCT_ORDER_ARGVS = [
    ["verify", "thm-wp", "--nmax", "4", "--nq", "8", "--nt", "8", "--ns", "6", "--json"],
    ["verify", "thm-conj-pair", "--nmax", "6", "--nq", "10", "--nt", "10", "--json"],
    ["verify", "corollary-special", "--pair", "chain(3;1/2,2/3,3/4;4/5,5/6,6/7)",
     "--nq", "10", "--nt", "10", "--json"],
    ["selftest", "--json"],
    ["table", "--rep", "fermionic2", "--k", "3", "--nq", "12", "--nt", "10"],
]

PRODUCT_ORDER_DIGESTS = [
    "7e7060d6ffa869bafdc6ff6195c7f8a401296ffc67c5751477b42ed74478cc0a",
    "9c366aac36f45129ca6a61afdcfa4dd8cf0496c6106a848b99faffeb62415c87",
    "45436ca27ac9ccb478f1852201161c428e9c44631d767fe10686cc37c4b0d359",
    "e9752376e85e2463d42bea2e6c1208d10b7d23befc75b0ca001bdeea055b9c85",
    "44b93a8f90b259e0e1eca63419a843a0f47553deec367922b372c970fc632ae8",
]

POCH_TABLE_ARGVS = [
    ["verify", "corollary-special", "--pair", "chain(3;1/2,2,1/3;2,1/2,3)",
     "--nq", "10", "--nt", "10", "--json"],
    ["verify", "thm-general", "--k", "3", "--b", "1/2,2,1/3", "--c", "2,1/2,3",
     "--nq", "10", "--nt", "8", "--json"],
]

POCH_TABLE_DIGESTS = [
    "6538c10fac379ddac38679e90aca758261a1b577780a2793ec77d1b5ee201181",
    "66da1d1a1dc4b05bd217fcdbcc0a241bd71b5899d4042c5b52f28fd757920072",
]

JSON_TABLE_ARGVS = [
    ["table", "--rep", rep, "--k", "2", "--nq", "10", "--nt", "10", "--format", "json"]
    for rep in ("fermionic", "schur", "hall-littlewood")
]

JSON_TABLE_DIGESTS = [
    "c82593f0548a8e9b3ec3157dc5b9351118347afebb662e8c20c12653268d07bd",
    "0c95b55068a40cbe5e30c06c3a8910b2ace1bf78f4210812c2fd79e60217af4f",
    "010200fe076105fa5b67bf3c23a71902ff1405cef5ccb3fb68e241555b31bd20",
]

CASES = [(f"{name}-{i}", argv) for name, argvs in WORKLOAD_ARGVS.items()
         for i, argv in enumerate(argvs)]


def output_digest(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0, argv
    text = out.getvalue()
    if argv[0] != "table":
        reports = json.loads(text)
        for report in reports:
            report.pop("wall_time_ms")
        text = json.dumps(reports, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_workload_argv_has_a_digest():
    assert len(CASES) == 22
    assert sorted(DIGESTS) == sorted(case for case, _ in CASES)


@pytest.mark.parametrize("case, argv", CASES, ids=[case for case, _ in CASES])
def test_output_matches_recorded_digest(case, argv):
    assert output_digest(argv) == DIGESTS[case]


@pytest.mark.parametrize("argv, digest", zip(HELD_OUT_ARGVS, HELD_OUT_DIGESTS),
                         ids=[f"bailey-families-7919-{i}" for i in range(len(HELD_OUT_ARGVS))])
def test_held_out_output_matches_recorded_digest(argv, digest):
    assert output_digest(argv) == digest


@pytest.mark.parametrize("argv, digest", zip(FERMIONIC_ARGVS, FERMIONIC_DIGESTS),
                         ids=["schur-table", "hall-littlewood-table",
                              "thm-general-k3-mixed", "thm-main-k3-40-30"])
def test_fermionic_output_matches_recorded_digest(argv, digest):
    assert output_digest(argv) == digest


@pytest.mark.parametrize("argv, digest", zip(DYNKIN_TABLE_ARGVS, DYNKIN_TABLE_DIGESTS),
                         ids=["original-k2-14-10", "original-k3-10-8", "original-k1-20-16",
                              "original-k6-14-10", "original-k2-24-18"])
def test_dynkin_table_matches_recorded_digest(argv, digest):
    assert output_digest(argv) == digest


@pytest.mark.parametrize("argv, digest", zip(PRODUCT_ORDER_ARGVS, PRODUCT_ORDER_DIGESTS),
                         ids=["thm-wp-8-8-6", "thm-conj-pair-10-10", "chain3-10-10",
                              "selftest-default", "fermionic2-k3-12-10"])
def test_product_order_output_matches_recorded_digest(argv, digest):
    assert output_digest(argv) == digest


@pytest.mark.parametrize("argv, digest", zip(POCH_TABLE_ARGVS, POCH_TABLE_DIGESTS),
                         ids=["chain3-unit-kernel-10-10", "thm-general-k3-unit-kernel-10-8"])
def test_poch_table_output_matches_recorded_digest(argv, digest):
    assert output_digest(argv) == digest


@pytest.mark.parametrize("argv, digest", zip(JSON_TABLE_ARGVS, JSON_TABLE_DIGESTS),
                         ids=["fermionic-json-k2-10-10", "schur-json-k2-10-10",
                              "hall-littlewood-json-k2-10-10"])
def test_json_table_matches_recorded_digest(argv, digest):
    assert output_digest(argv) == digest
