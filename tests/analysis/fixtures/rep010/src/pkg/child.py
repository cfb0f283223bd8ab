"""Subclasses in another module than their serialization (REP002 fixture)."""

from .base import Synopsis


class Drifted(Synopsis):
    """Seeded regression: adds state the inherited state_dict never saves."""

    def __init__(self) -> None:
        super().__init__()
        self.offset = 0.0


class Quiet(Synopsis):
    def __init__(self) -> None:
        super().__init__()
        self.scratch = 0.0  # repro: noqa[REP010]


class Exempted(Synopsis):
    _checkpoint_exempt = ("cache",)

    def __init__(self) -> None:
        super().__init__()
        self.cache = 0.0


class Covered(Synopsis):
    """Clean: overrides state_dict to cover the added attribute."""

    def __init__(self) -> None:
        super().__init__()
        self.scale = 1.0

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["scale"] = self.scale
        return state
