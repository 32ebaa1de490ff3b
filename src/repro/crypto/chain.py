"""Chained signatures (Sec. II and Algorithm 1).

NECTAR relays edge announcements inside *signature chains*
``σ_k(σ_x(... σ_u(proof_{u,v})))``: each relaying node appends its own
signature over the payload plus the chain so far.  The chain length
must equal the round number (Algorithm 1, l. 14), which bounds the
damage Byzantine relays can do and underpins the Dolev–Strong style
argument of Lemma 2.

A chain is a tuple of :class:`ChainLink`; link ``i`` signs the domain-
separated concatenation of the payload and links ``0 .. i-1``.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError

from repro.crypto.signer import KeyPair, PublicDirectory, SignatureScheme
from repro.types import NodeId

_CHAIN_DOMAIN = b"repro-signature-chain|"

_set = object.__setattr__


class ChainLink:
    """One layer of a signature chain.

    Attributes:
        signer: id of the node that produced this layer.
        signature: its signature over the payload and all inner layers.

    A link made by :func:`extend_chain` is *deferred*: it keeps what it
    needs to sign and computes its signature the first time
    ``signature`` is read (by a verifier, a hash, the codec or an
    equality test).  Most relayed links are never read — a receiver
    drops an announcement for an already-known edge before validating
    it (Algorithm 1, l. 14) — so they are never signed.  Signing is
    deterministic, so a deferred link is indistinguishable from an
    eagerly signed one: same bytes, same equality, same hash, same
    pickle.  Links are immutable either way.
    """

    __slots__ = ("signer", "signature", "_pending")

    def __init__(self, signer: NodeId, signature: bytes) -> None:
        _set(self, "signer", signer)
        _set(self, "signature", signature)
        _set(self, "_pending", None)

    def __getattr__(self, name: str):
        # Only reached while the ``signature`` slot is unset, i.e. on
        # the first read of a deferred link's signature.
        if name != "signature" or self._pending is None:
            raise AttributeError(name)
        scheme, key_pair, payload, inner = self._pending
        signature = scheme.sign(key_pair, chain_message(payload, inner))
        _set(self, "signature", signature)
        _set(self, "_pending", None)
        return signature

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not ChainLink:
            return NotImplemented
        return self.signer == other.signer and self.signature == other.signature

    def __hash__(self) -> int:
        return hash((self.signer, self.signature))

    def __repr__(self) -> str:
        return f"ChainLink(signer={self.signer!r}, signature={self.signature!r})"

    def __reduce__(self):
        # Pickles the signed bytes, never the pending key pair.
        return (ChainLink, (self.signer, self.signature))


def chain_message(payload: bytes, inner_links: tuple[ChainLink, ...]) -> bytes:
    """The byte string signed by the link that follows ``inner_links``."""
    parts = [_CHAIN_DOMAIN, len(payload).to_bytes(4, "big"), payload]
    for link in inner_links:
        parts.append(link.signer.to_bytes(2, "big"))
        parts.append(link.signature)
    return b"".join(parts)


def extend_chain(
    scheme: SignatureScheme,
    key_pair: KeyPair,
    payload: bytes,
    links: tuple[ChainLink, ...],
) -> tuple[ChainLink, ...]:
    """Append the caller's signature layer and return the new chain.

    ``links`` may be empty, in which case this creates the innermost
    layer (what the originator sends in round 1).  The new layer is
    deferred: ``scheme.sign`` runs when its signature is first read.
    """
    link = object.__new__(ChainLink)
    _set(link, "signer", key_pair.node_id)
    _set(link, "_pending", (scheme, key_pair, payload, links))
    return links + (link,)


def verify_chain(
    scheme: SignatureScheme,
    directory: PublicDirectory,
    payload: bytes,
    links: tuple[ChainLink, ...],
) -> bool:
    """Check every layer of a signature chain.

    Returns ``False`` on any malformed or invalid layer; adversarial
    chains are dropped silently by callers.
    """
    if not links:
        return False
    for index, link in enumerate(links):
        if link.signer not in directory:
            return False
        message = chain_message(payload, links[:index])
        public = directory.public_key_of(link.signer)
        if not scheme.verify(public, message, link.signature):
            return False
    return True


def chain_signers(links: tuple[ChainLink, ...]) -> tuple[NodeId, ...]:
    """The signer ids of a chain, innermost first."""
    return tuple(link.signer for link in links)
