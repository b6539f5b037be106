"""Golden release digests: the published bytes, pinned as literal sha256 strings.

Every other digest test compares two code paths of the same build, so a
change that alters the digest everywhere at once would pass them all.
These literals were computed once and must never change: a seeded
2,000-record Agrawal table, bulk loaded at base k = 5, released under
every strategy × compaction setting (``hilbert`` is compacted only) ×
k ∈ {5, 10, 25}, both freshly loaded and after a round of deletes,
updates and a batch insert.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.core.anonymizer import RTreeAnonymizer
from repro.core.partition import release_digest
from repro.dataset.agrawal import AgrawalGenerator, make_agrawal_table
from repro.dataset.record import Record

RECORDS = 2_000
SEED = 11

LOADED = {
    ("subtree", True, 5): "813a4f99178803fed64ec1b1984465f876fb5a7b353c885e3182854eb31eab43",
    ("subtree", True, 10): "9dd6efe90a5363dff0fb04dacdaf081f3edae3e2778587f0e0bbb7aff34cba0a",
    ("subtree", True, 25): "1235a82ab4efb47184ee1bc266a4bcc79df9682b54f9ab43f059ef68ed0cec99",
    ("subtree", False, 5): "abc6aacaeecb8fdd4cbe387ac9fa016b0a5003fbb1de73c6e6365262ed4e5316",
    ("subtree", False, 10): "09e8c523423f1b2f373b6db240f7e0c0c2a2df2395c96f90797591bd41147302",
    ("subtree", False, 25): "b530a7da5aeee9ecd8c8ddeb988e97f1c6a4f6ae5dbf8004b9cd51aa98e780d9",
    ("sequential", True, 5): "813a4f99178803fed64ec1b1984465f876fb5a7b353c885e3182854eb31eab43",
    ("sequential", True, 10): "d625466c58325b5f19b89817d330ed992c7924be3c883b59081af8726b3f2197",
    ("sequential", True, 25): "fb29dcf6f3e91fc4df30e8b884bc17dc8aac11e7e1cda87ee96b7ec4d8739e76",
    ("sequential", False, 5): "abc6aacaeecb8fdd4cbe387ac9fa016b0a5003fbb1de73c6e6365262ed4e5316",
    ("sequential", False, 10): "7f1e09dd1c96e9bf74e25fece74ac8b1014dc6ebf21817b25b25a0830105d793",
    ("sequential", False, 25): "120394aac88041053ebb07745a0a0d97aa2a6631752db38784a8ee772c935190",
    ("hilbert", True, 5): "10fd352ca574f1b5c9c3493c0dc584607a09a4c71bda65d77cfa42b52b67f3b6",
    ("hilbert", True, 10): "982826c4ce067b306fbe3ea8dc9843b9661f1f9182d9353c915bff14e6994e05",
    ("hilbert", True, 25): "314309957e2e84bf2950f74c249a27153ecf20c9e1516ba4787ab8431fc3f046",
}

MUTATED = {
    ("subtree", True, 5): "a46c26ac16f3f04aa540ee26312f2548e741d75c732a8c2d8df4619c405a5b04",
    ("subtree", True, 10): "8867eb5b28bfdd87adc9c9205eccb8244d568eb896305d812652707b84a3d6dc",
    ("subtree", True, 25): "b5221315b726b120f5fb3db5296790094e2991082c9b4dccdc0df43ddd13decb",
    ("subtree", False, 5): "814d9ec3a59ee11d08112e75db521c040f5fca30a0619abee3d8ed4ca9935467",
    ("subtree", False, 10): "6828485be8f77a66fca4013ab4f36aff1e881a135af021a6bcbaccd4cdbc7f00",
    ("subtree", False, 25): "e3a4d0774b960055343bb74de422d6085bb5f0035a9151ec94b489cb3d0deba6",
    ("sequential", True, 5): "a46c26ac16f3f04aa540ee26312f2548e741d75c732a8c2d8df4619c405a5b04",
    ("sequential", True, 10): "d87d5647abcda0a65d125ca055185c6c57836dcebb112cc21072019faa1faa78",
    ("sequential", True, 25): "ce1e6a00370e4d4e89e596adad52b4c916c9de6683a74b82d006ed887a3536e1",
    ("sequential", False, 5): "814d9ec3a59ee11d08112e75db521c040f5fca30a0619abee3d8ed4ca9935467",
    ("sequential", False, 10): "c4931361a287315d8df5ac5a0e9ee955e2ee9431c553285af35eb372c0c2eb17",
    ("sequential", False, 25): "6a1718fd5373e2cd5f8e06f9fe6faaaccff682d8c0c99e91d6d5ccc437c9422a",
    ("hilbert", True, 5): "0a540a19af5efcd89c94ffd78907a5310d6692b0e9a7d9d1aea5a908fff077fc",
    ("hilbert", True, 10): "abbe75f40cec8a111a5a83cf5949309db01ec66980135ea9db3c3e670e86ca8e",
    ("hilbert", True, 25): "652d4aefc082415ca10f94ae41c44103c656472ec30d0c576784d56fbab7f1c5",
}


@lru_cache(maxsize=None)
def _anonymizer(mutated: bool) -> RTreeAnonymizer:
    table = make_agrawal_table(RECORDS, seed=SEED)
    anonymizer = RTreeAnonymizer(table, base_k=5)
    anonymizer.bulk_load(table)
    if mutated:
        records = table.records
        moved = make_agrawal_table(RECORDS, seed=SEED + 1).records
        for record in records[::9]:
            anonymizer.delete(record.rid, record.point)
        for record in records[1::27]:
            anonymizer.update(
                record.rid,
                record.point,
                Record(record.rid, moved[record.rid].point, record.sensitive),
            )
        anonymizer.insert_batch(
            AgrawalGenerator(SEED + 2).generate(150, first_rid=RECORDS)
        )
    anonymizer.tree.check_invariants()
    return anonymizer


@pytest.mark.parametrize(
    ("mutated", "strategy", "compacted", "k"),
    [(False, *key) for key in LOADED] + [(True, *key) for key in MUTATED],
)
def test_release_digest_matches_golden(
    mutated: bool, strategy: str, compacted: bool, k: int
) -> None:
    expected = (MUTATED if mutated else LOADED)[(strategy, compacted, k)]
    release = _anonymizer(mutated).anonymize(
        k, compacted=compacted, strategy=strategy
    )
    assert release_digest(release) == expected
