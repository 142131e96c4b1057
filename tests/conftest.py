import os

import numpy as np
import pytest

import cliffdunkl
from cliffdunkl.cdt_engine import AnalyticField, build_plan
from cliffdunkl.clifford_core import MultiVector, Signature, validate_imaginary
from cliffdunkl.dunkl_rank1 import MultiplicitySplit

# subprocesses import the package this process imported, also when src/ is
# on the path only through pytest's `pythonpath` setting
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [
    os.path.dirname(os.path.dirname(cliffdunkl.__file__)), os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def sig02():
    return Signature(0, 2)


@pytest.fixture(scope="session")
def ms_std():
    return MultiplicitySplit((0.3, 0.7), 1)


@pytest.fixture(scope="session")
def unit_a(sig02):
    return validate_imaginary(MultiVector.blade(sig02, "e1"), "e1")


@pytest.fixture(scope="session")
def unit_b(sig02):
    return validate_imaginary(MultiVector.blade(sig02, "e2"), "e2")


@pytest.fixture(scope="session")
def plan_std(sig02, ms_std, unit_a, unit_b):
    # comfortably resolves unit-spread Gaussians on both sides
    return build_plan(sig02, ms_std, unit_a, unit_b, L_x=8.0, L_y=8.0)


@pytest.fixture(scope="session")
def plan_std_mehta(sig02, ms_std, unit_a, unit_b):
    return build_plan(sig02, ms_std, unit_a, unit_b, L_x=8.0, L_y=8.0,
                      normalization="mehta")


def gaussian_field(sig, ms, delta=1.0, blades=None):
    body = lambda *xs: np.exp(-delta * sum(x * x for x in xs))
    masks = blades if blades is not None else [0]
    return AnalyticField(sig, ms, {m: body for m in masks})
