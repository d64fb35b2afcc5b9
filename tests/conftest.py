import pytest

from delmenu import gen_random
from delmenu.cli import sample_menus as random_menus  # noqa: F401  (the CLI's one sampling rule)

OUTSIDE_MODES = ("none", "fixed", "random")


def random_independent(seed: int, outside: str | None = None, n: int = 3, support: int = 2):
    """Seeded random independent instance; outside mode cycles with the seed."""
    if outside is None:
        outside = OUTSIDE_MODES[seed % 3]
    return gen_random("independent", n=n, support_size=support, seed=seed, outside=outside)


def random_correlated(seed: int, outside: str | None = None, n: int = 3, profiles: int = 4):
    if outside is None:
        outside = OUTSIDE_MODES[seed % 3]
    return gen_random("correlated", n=n, support_size=profiles, seed=seed, outside=outside)


@pytest.fixture
def triangle_edges(tmp_path):
    path = tmp_path / "triangle.edges"
    path.write_text("1 2\n2 3\n1 3\n")
    return str(path)
