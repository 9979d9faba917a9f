import re
from pathlib import Path

import pytest

from hadamard_ineq import geometry as geo
from hadamard_ineq import weighted as wgt


@pytest.fixture(scope="session")
def hyperbolic_model():
    return geo.build_model(geo.Hyperbolic(1.0), 3, 20.0)


@pytest.fixture(scope="session")
def euclidean_model():
    return geo.build_model(geo.Euclidean(), 3, 50.0)


@pytest.fixture(scope="session")
def power_model():
    # beta = 1 law; domain deep enough for near-critical maximizers
    return geo.build_model(geo.PowerLaw(1.0, 1.0, 1.0), 3, 20000.0,
                           grid=geo.GridSpec(n=6144, kind="log"))


@pytest.fixture(scope="session")
def quasi_model():
    return geo.build_model(geo.QuasiEuclideanOptimal(2.0, 1.0), 3, 1200.0)


@pytest.fixture(scope="session")
def hyperbolic_weight(hyperbolic_model):
    return wgt.build_weight(hyperbolic_model)


@pytest.fixture(scope="session")
def euclidean_weight(euclidean_model):
    return wgt.build_weight(euclidean_model)


@pytest.fixture(scope="session")
def power_weight(power_model):
    return wgt.build_weight(power_model)


@pytest.fixture(scope="session")
def quasi_weight(quasi_model):
    return wgt.build_weight(quasi_model)


_CONFIG_HASH = re.compile(r'config(=|": ")[0-9a-f]{16}')


@pytest.fixture
def output_diff():
    """diff(a, b): the names of the files that differ between output
    directories a and b.

    Every ``config=`` hash is masked first, in file headers and in the JSON
    ``meta`` record, so runs whose resolved configurations differ but whose
    results agree show no difference.  A file present in only one directory
    differs.
    """
    def masked(path):
        return _CONFIG_HASH.sub(r"config\1<hash>", path.read_text()) if path.exists() else None

    def diff(a, b) -> list:
        a, b = Path(a), Path(b)
        names = sorted({p.name for d in (a, b) for p in d.iterdir()})
        return [name for name in names if masked(a / name) != masked(b / name)]
    return diff
