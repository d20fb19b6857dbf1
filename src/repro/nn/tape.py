"""Step counters: the benchmark ledger's read surface (``benchmarks/ledger/
child.py``), which goes with ROADMAP item 1.  ``stats().steps`` counts one
per member of every local step :mod:`repro.federated.compiled` ran;
``replays`` and ``enabled()`` name the retired capture/replay engine and
read 0 and ``False``."""


class TapeStats:
    __slots__ = ("steps", "replays")

    def __init__(self) -> None:
        self.steps = self.replays = 0

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


_STATS = TapeStats()


def stats() -> TapeStats:
    return _STATS


def reset_stats() -> None:
    _STATS.__init__()


def enabled() -> bool:
    return False
