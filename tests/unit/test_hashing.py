"""Unit tests: hashing utilities (repro.common.hashing)."""

import numpy as np
import pytest

from repro.common.hashing import key_owner, make_owner_fn, splitmix64, splitmix64_array


class TestSplitmix:
    def test_deterministic(self):
        assert splitmix64(12345) == splitmix64(12345)

    def test_different_inputs_differ(self):
        outs = {splitmix64(i) for i in range(1000)}
        assert len(outs) == 1000

    def test_scalar_matches_vector(self):
        keys = np.arange(100, dtype=np.int64)
        vec = splitmix64_array(keys)
        for i in (0, 17, 99):
            assert int(vec[i]) == splitmix64(i)

    def test_range_is_64bit(self):
        assert 0 <= splitmix64(2**63) < 2**64


class TestKeyOwner:
    def test_in_range(self):
        owners = key_owner(np.arange(10_000), p=13)
        assert owners.min() >= 0 and owners.max() < 13

    def test_roughly_uniform(self):
        owners = key_owner(np.arange(100_000), p=8)
        counts = np.bincount(owners, minlength=8)
        assert counts.min() > 100_000 / 8 * 0.9

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            key_owner(np.arange(5), 0)


class TestOwnerFn:
    def test_consistent_with_array_form(self):
        fn = make_owner_fn(8)
        owners = key_owner(np.arange(50), 8)
        for i in range(50):
            assert fn(i) == owners[i]

    @pytest.mark.parametrize("keys", [
        np.array([-1, -5, -2**63, 0, 7, 2**63 - 1], dtype=np.int64),
        np.array([0, 5, 2**63, 2**63 + 12345, 2**64 - 1], dtype=np.uint64),
        np.array([-7, 3, -2**31], dtype=np.int32),
    ], ids=["negative-int64", "uint64-above-2**63", "int32"])
    @pytest.mark.parametrize("salt", [0, 12345, 0xD5C0, 2**70 + 3])
    def test_array_form_equals_scalar_form_on_dtype_extremes(self, keys, salt):
        """Negative and >= 2**63 keys hash by their 64-bit pattern, with
        every salt, in both forms."""
        for p in (1, 3, 8):
            fn = make_owner_fn(p, salt=salt)
            assert key_owner(keys, p, salt).tolist() == [fn(int(x)) for x in keys]

    def test_salt_changes_placement(self):
        a = make_owner_fn(64, salt=0)
        b = make_owner_fn(64, salt=999)
        moved = sum(a(i) != b(i) for i in range(200))
        assert moved > 150

    def test_hashable_non_int_keys(self):
        fn = make_owner_fn(4)
        assert 0 <= fn("hello") < 4
        assert 0 <= fn((1, 2)) < 4

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            make_owner_fn(0)
