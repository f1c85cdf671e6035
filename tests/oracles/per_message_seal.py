"""One AEAD seal per consensus message, kept as the differential oracle.

Production nodes coalesce every consensus message for one peer within one
scheduler event into a single sealed frame (``FramedLink.send``).
``per_message_sealing()`` swaps in the shape that preceded it — each
message sealed and opened on its own, travelling as a bare
``SealedMessage`` — so ``tests/net/test_frame_coalescing.py`` can require
that frames change no event, RNG draw or ledger byte. Nodes must be built
inside the context: they register their network handler at construction.
"""

import contextlib
from unittest import mock

from repro.consensus.messages import decode_message, encode_message
from repro.errors import VerificationError
from repro.net.channels import SealedMessage
from repro.node.node import CCFNode

_framed_dispatch = CCFNode._on_network_message


def _send_consensus_message(self, to, message):
    if not self.config.secure_channels:
        self.network.send(self.node_id, to, message)
    elif self.channels.has_channel(to):
        sealed = self.channels.seal(to, encode_message(message))
        self.network.send(self.node_id, to, sealed)


def _on_network_message(self, src, payload):
    if not isinstance(payload, SealedMessage):
        _framed_dispatch(self, src, payload)
        return
    if self.stopped:
        return
    try:
        raw = self.channels.open(payload)
    except VerificationError:
        return  # unknown peer or tampered box: drop
    if self.consensus is not None:
        self.consensus.dispatch(decode_message(raw))


@contextlib.contextmanager
def per_message_sealing():
    with mock.patch.object(
        CCFNode, "send_consensus_message", _send_consensus_message
    ), mock.patch.object(CCFNode, "_on_network_message", _on_network_message):
        yield
