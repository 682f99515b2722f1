import pytest

from carleman_lab.geometry import CylinderGeometry, GammaSide
from carleman_lab.problems import (
    Recipe,
    axial_profile,
    cross_time_profile,
    make_instance,
)
from carleman_lab.weight import plan_parameters


@pytest.fixture(scope="session")
def worked_geometry():
    """Unit cross-section with data side HI; region corners sit on nodes."""
    return CylinderGeometry(
        d_lo=0.0, d_hi=1.0, ell=1.0, delta=1.0,
        gamma_side=GammaSide.HI, nx_prime=21, nx_n=17, nt=21,
    )


@pytest.fixture(scope="session")
def worked_plan(worked_geometry):
    return plan_parameters(worked_geometry, (0.5, 1.0), delta0=0.7, lam=1.0, margin=1.1)


@pytest.fixture(scope="session")
def quartic_recipe():
    return Recipe(
        a=axial_profile("quadratic_plus_quartic"),
        b=cross_time_profile("exp_cos"),
        f=cross_time_profile("one"),
        p0=cross_time_profile("constant", value=0.0),
    )


@pytest.fixture(scope="session")
def quartic_instance(worked_geometry, quartic_recipe):
    return make_instance(worked_geometry, quartic_recipe)
