"""The checkpoint-protocol base the subclasses inherit from (REP002 fixture)."""


class Synopsis:
    def __init__(self) -> None:
        self.weights: list[float] = []

    def state_dict(self) -> dict:
        return {"weights": list(self.weights)}

    def load_state(self, state: dict) -> None:
        self.weights = list(state["weights"])
