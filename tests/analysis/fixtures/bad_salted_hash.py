"""DET004 fixture: the salted built-in hash() feeding results."""

from typing import List


def device_for(user_id: str, n_devices: int) -> int:
    """The owning device changes with PYTHONHASHSEED."""
    return hash(user_id) % n_devices


def bucket_order(keys: List[str]) -> List[str]:
    """Ordering by the salted hash is not reproducible."""
    return sorted(keys, key=lambda k: hash(k))


class Cell:
    """A value type: its __hash__ may use the built-in."""

    def __init__(self, x: int) -> None:
        self.x = x

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Cell) and other.x == self.x

    def __hash__(self) -> int:
        return hash(self.x)
