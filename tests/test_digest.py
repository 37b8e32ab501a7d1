"""The byte-identity digest (`tests/digest.py`) hashes every entry the same way twice."""

import digest


def test_digest_is_repeatable_in_one_process():
    first = digest.digest()
    assert len(first) > 50 and all(len(h) == 64 for h in first.values())
    assert digest.digest() == first
