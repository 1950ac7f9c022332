from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from waringcert import Instance, PointSet, PrimeContext
from waringcert.errors import DuplicatePoint, ZeroPoint
from waringcert.storage import load_instance

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def ctx():
    return PrimeContext(31991)


@pytest.fixture(scope="session")
def small_ctx():
    return PrimeContext(101)


def fixture_instance(name: str) -> Instance:
    """A fresh instance from fixtures/<name>.json, the one copy of the
    reference data: optics_T1 (identifiable octic), optics_T2 (the same
    fourteen points with a second decomposition) and the six_* sets."""
    return load_instance(FIXTURES / f"{name}.json")[0]


def six_point_sets() -> dict[str, PointSet]:
    """Six plane points in general position, on a conic, five on a line."""
    return {key: fixture_instance(f"six_{key}").pointset
            for key in ("general", "on_conic", "five_aligned")}


@pytest.fixture(scope="session")
def ref_points():
    return fixture_instance("optics_T1").pointset


@pytest.fixture(scope="session")
def t1():
    return fixture_instance("optics_T1")


@pytest.fixture(scope="session")
def t2():
    return fixture_instance("optics_T2")


def random_pointset(ctx, rng, count, n=2, max_tries=200):
    """Random point set with pairwise distinct points."""
    for _ in range(max_tries):
        coords = rng.integers(0, ctx.p, size=(count, n + 1))
        try:
            return PointSet(ctx, coords)
        except (ZeroPoint, DuplicatePoint):
            continue
    raise RuntimeError("could not sample a point set")


def random_instance(ctx, rng, count, degree, n=2):
    ps = random_pointset(ctx, rng, count, n=n)
    lam = rng.integers(1, ctx.p, size=count)
    return Instance(ps, degree, lam)
