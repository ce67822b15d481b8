"""Protocol stacks: the host TCP baseline and the INIC custom protocol."""

from .base import Mailbox, MessageView, next_message_id
from .inicproto import INICProtoConfig, TransferPlan
from .tcp import TCPConfig, TCPStack, TCPStats

__all__ = [
    "INICProtoConfig",
    "Mailbox",
    "MessageView",
    "TCPConfig",
    "TCPStack",
    "TCPStats",
    "TransferPlan",
    "next_message_id",
]
