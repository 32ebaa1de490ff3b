"""Tests for signature chains (Sec. II / Algorithm 1)."""

import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro.core.messages import EdgeAnnouncement, NectarBatch, NectarBatchCodec
from repro.core.validation import AnnouncementValidator
from repro.crypto.cache import VerificationCache
from repro.crypto.chain import (
    ChainLink,
    chain_message,
    chain_signers,
    extend_chain,
    verify_chain,
)
from repro.crypto.proofs import make_proof, proof_bytes
from repro.crypto.sizes import DEFAULT_PROFILE


@pytest.fixture
def payload():
    return b"the-proof-bytes"


def build_chain(scheme, keystore, payload, signer_ids):
    chain = ()
    for signer in signer_ids:
        chain = extend_chain(scheme, keystore.key_pair_of(signer), payload, chain)
    return chain


def build_eager_chain(scheme, keystore, payload, signer_ids):
    """The same chain with every layer signed up front."""
    chain = ()
    for signer in signer_ids:
        message = chain_message(payload, chain)
        signature = scheme.sign(keystore.key_pair_of(signer), message)
        chain = chain + (ChainLink(signer=signer, signature=signature),)
    return chain


class TestExtendAndVerify:
    def test_single_link_roundtrip(self, scheme, keystore, payload):
        chain = build_chain(scheme, keystore, payload, [3])
        assert verify_chain(scheme, keystore.directory, payload, chain)
        assert chain_signers(chain) == (3,)

    def test_multi_link_roundtrip(self, scheme, keystore, payload):
        chain = build_chain(scheme, keystore, payload, [3, 1, 4, 1, 5])
        assert verify_chain(scheme, keystore.directory, payload, chain)
        assert chain_signers(chain) == (3, 1, 4, 1, 5)

    def test_empty_chain_is_invalid(self, scheme, keystore, payload):
        assert not verify_chain(scheme, keystore.directory, payload, ())

    def test_wrong_payload_fails(self, scheme, keystore, payload):
        chain = build_chain(scheme, keystore, payload, [0, 1])
        assert not verify_chain(scheme, keystore.directory, b"other", chain)

    def test_inner_layer_tamper_fails(self, scheme, keystore, payload):
        chain = build_chain(scheme, keystore, payload, [0, 1, 2])
        bad_inner = ChainLink(signer=0, signature=bytes(scheme.signature_size))
        tampered = (bad_inner,) + chain[1:]
        assert not verify_chain(scheme, keystore.directory, payload, tampered)

    def test_reordered_links_fail(self, scheme, keystore, payload):
        chain = build_chain(scheme, keystore, payload, [0, 1, 2])
        reordered = (chain[1], chain[0], chain[2])
        assert not verify_chain(scheme, keystore.directory, payload, reordered)

    def test_truncated_chain_still_verifies_as_prefix(self, scheme, keystore, payload):
        """Prefixes are themselves valid chains — the relay invariant."""
        chain = build_chain(scheme, keystore, payload, [0, 1, 2])
        assert verify_chain(scheme, keystore.directory, payload, chain[:2])

    def test_unknown_signer_fails(self, scheme, keystore, payload):
        chain = build_chain(scheme, keystore, payload, [0])
        forged = chain + (ChainLink(signer=999, signature=bytes(scheme.signature_size)),)
        assert not verify_chain(scheme, keystore.directory, payload, forged)

    def test_attacker_cannot_extend_as_someone_else(self, scheme, keystore, payload):
        """Signing a layer in another node's name fails verification."""
        chain = build_chain(scheme, keystore, payload, [0])
        attacker = keystore.key_pair_of(5)
        message = chain_message(payload, chain)
        fake_layer = ChainLink(signer=7, signature=scheme.sign(attacker, message))
        assert not verify_chain(
            scheme, keystore.directory, payload, chain + (fake_layer,)
        )


class TestChainMessage:
    def test_domain_separated_from_raw_payload(self, payload):
        assert chain_message(payload, ()) != payload

    def test_depends_on_inner_links(self, scheme, keystore, payload):
        chain = build_chain(scheme, keystore, payload, [1])
        assert chain_message(payload, ()) != chain_message(payload, chain)

    def test_length_prefix_prevents_ambiguity(self):
        """Different (payload, links) splits never collide."""
        a = chain_message(b"ab", ())
        b = chain_message(b"a", ())
        assert not b.startswith(a[: len(b)]) or a != b
        assert a != b


class TestDeferredLinks:
    """extend_chain signs a layer on first read; nothing else changes."""

    def test_equal_and_hash_like_eager_links(self, scheme, keystore, payload):
        eager = build_eager_chain(scheme, keystore, payload, [2, 0, 5])
        deferred = build_chain(scheme, keystore, payload, [2, 0, 5])
        # Hash first: hashing is one of the reads that signs a link.
        assert hash(deferred) == hash(eager)
        assert deferred == eager
        assert [link.signature for link in deferred] == [
            link.signature for link in eager
        ]
        assert len({*eager, *deferred}) == 3

    def test_equality_signs_an_unread_link(self, scheme, keystore, payload):
        eager = build_eager_chain(scheme, keystore, payload, [4])
        deferred = build_chain(scheme, keystore, payload, [4])
        assert deferred[0] == eager[0]
        assert deferred[0] != ChainLink(signer=4, signature=bytes(64))

    def test_codec_encoding_is_byte_identical(self, scheme, keystore):
        proof = make_proof(scheme, keystore.key_pair_of(1), keystore.key_pair_of(2))
        payload = proof_bytes(proof)

        def batch(build):
            return NectarBatch(
                tuple(
                    EdgeAnnouncement(proof, build(scheme, keystore, payload, path))
                    for path in ([1], [2, 3], [1, 4, 6])
                )
            )

        codec = NectarBatchCodec()
        assert codec.encode(batch(build_chain), DEFAULT_PROFILE) == codec.encode(
            batch(build_eager_chain), DEFAULT_PROFILE
        )

    def test_links_are_immutable(self, scheme, keystore, payload):
        unread = build_chain(scheme, keystore, payload, [1])[0]
        eager = build_eager_chain(scheme, keystore, payload, [1])[0]
        for link in (unread, eager):
            with pytest.raises(FrozenInstanceError):
                link.signer = 9
            with pytest.raises(FrozenInstanceError):
                link.signature = bytes(scheme.signature_size)
            with pytest.raises(FrozenInstanceError):
                del link.signer
        assert unread == eager

    def test_pickle_materialises_without_the_private_key(
        self, scheme, keystore, payload
    ):
        chain = build_chain(scheme, keystore, payload, [3, 7])
        data = pickle.dumps(chain)
        for signer in (3, 7):
            assert keystore.key_pair_of(signer).private_key not in data
        restored = pickle.loads(data)
        assert restored == build_eager_chain(scheme, keystore, payload, [3, 7])
        assert verify_chain(scheme, keystore.directory, payload, restored)

    def test_grafted_prefix_rejected_under_a_deferred_outer_link(
        self, scheme, keystore
    ):
        """A foreign chain prefix stays invalid even when the outer link
        honestly signs over it."""
        proof_a = make_proof(scheme, keystore.key_pair_of(0), keystore.key_pair_of(1))
        proof_b = make_proof(scheme, keystore.key_pair_of(0), keystore.key_pair_of(2))
        payload_a, payload_b = proof_bytes(proof_a), proof_bytes(proof_b)
        foreign = build_chain(scheme, keystore, payload_b, [0])
        grafted = extend_chain(scheme, keystore.key_pair_of(3), payload_a, foreign)
        assert not verify_chain(scheme, keystore.directory, payload_a, grafted)

        cache = VerificationCache()
        validator = AnnouncementValidator(scheme, keystore.directory, cache=cache)
        # The prefix is known-good for payload B only; the cache must
        # not lend that verdict to payload A.
        assert validator.validate(EdgeAnnouncement(proof_b, foreign), 1, 0)
        assert not validator.validate(EdgeAnnouncement(proof_a, grafted), 2, 3)
        assert cache.stats.chain_prefix_hits == 0
