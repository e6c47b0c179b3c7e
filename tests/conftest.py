import sys
from pathlib import Path

import pytest

from chronotext import metric

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def full_closes(monkeypatch):
    """The networks that `stp_close` closes through every point (`changed`
    None) from now on, in call order, in every package module bound to it."""
    closed = []
    real = metric.stp_close

    def counted(s, *, changed=None):
        if changed is None:
            closed.append(s)
        return real(s, changed=changed)

    for name, module in list(sys.modules.items()):
        if name.startswith("chronotext.") and getattr(module, "stp_close", None) is real:
            monkeypatch.setattr(module, "stp_close", counted)
    return closed
