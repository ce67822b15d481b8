"""The compiled card-train loops (``repro/inic/_ctrain.c``): what they
report and what they hand back to the Python reference.

Their identity with that reference (``INICCard._scatter_blocks``,
``_group_bytes`` and ``_account_frames``) is the ``ctrain-*`` entries of
the pair registry, ``test_pairs.py``.  Skipped when the extension is not
built.
"""

from types import SimpleNamespace

import pytest

pytest.importorskip("repro.inic._ctrain")

from repro.inic import ACEII_PROTOTYPE, INICCard, SendBlock  # noqa: E402
from repro.inic import card as card_module  # noqa: E402
from repro.net import MacAddress, Train  # noqa: E402
from repro.sim import Simulator  # noqa: E402


def test_the_card_reports_its_compiled_loops():
    assert card_module.compiled is True
    assert card_module._scatter_blocks is card_module._ctrain.scatter_blocks
    assert card_module._account_frames is card_module._ctrain.account_frames


def test_group_bytes_hands_an_odd_group_back():
    kernel = card_module._ctrain
    train = Train(MacAddress(0), 8, kind="inic", op=1)
    for size in (10, 20, 30):
        train.append(MacAddress(1), size, 0.0)
    assert kernel.group_bytes([train, train], [0, 2]) == 40
    assert kernel.group_bytes([train], [3]) is None  # past the column
    assert kernel.group_bytes([SimpleNamespace(payload_bytes=[5])], [0]) is None
    train.payload_bytes[1] = 2.0
    assert kernel.group_bytes([train], [1]) is None
    assert INICCard._group_bytes([train], [1]) == 2.0


def test_scatter_blocks_hands_an_odd_train_back():
    """A train whose column is not a list, or bus floats that are not
    floats, leave the scatter to the reference: nothing is laid down."""
    kernel = card_module._ctrain
    card = INICCard(Simulator(), MacAddress(0), spec=ACEII_PROTOTYPE)
    blocks = [SendBlock(MacAddress(1), 100)]
    card._fast_rows(100, 4096)
    train = Train(card.address, 8, kind="inic", op=1)
    args = (4096, train, None, 1.0, 0.0, 0.0, 0.0)
    assert kernel.scatter_blocks(card, blocks, 0, 1, *args)[0] == 1
    assert len(train) == 1
    train.times = tuple(train.times)
    assert kernel.scatter_blocks(card, blocks, 0, 1, *args) == (0, 1.0, 0.0, 0.0, 0.0)
    train.times = list(train.times)
    odd = (4096, train, None, 1, 0.0, 0.0, 0.0)
    assert kernel.scatter_blocks(card, blocks, 0, 1, *odd) == (0, 1, 0.0, 0.0, 0.0)
    assert len(train) == 1
