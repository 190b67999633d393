"""Value-record semantics of the ten frozen classes: construction, equality,
hashing, repr and immutability, as ``dataclass(frozen=True)`` gave them."""

import pytest

from qtiming._record import record
from qtiming.distributions import StateKind, StateSpec, TimingDistribution, TimingVariable
from qtiming.media import AirConditions, CatalogEntry, MediumSegment, PathPair
from qtiming.montecarlo import SamplerConfig, WidthEstimate
from qtiming.oracle import VerificationReport
from qtiming.spectral import GaussianSpectrum

VACUUM = MediumSegment("vacuum", 0.0, 0.0, 1.0)
SILICA = MediumSegment("fused_silica", 0.0, 250.0, 1.0)

# Each class with the fields of one instance in order, and one other valid
# value of its first field.
SAMPLES = [
    (GaussianSpectrum, {"sigma_phi": 0.37}, 0.5),
    (StateSpec, {"kind": StateKind.ANTI_CORRELATED_FOCK, "n_photons": 10},
     StateKind.CORRELATED_FOCK),
    (TimingDistribution, {"variable": TimingVariable.MEAN_TIME_DIFFERENCE, "mean": 25.0,
                          "sigma": 3.5}, TimingVariable.MEAN_TIME_SUM),
    (MediumSegment, {"label": "vacuum", "alpha": 0.0, "beta": 0.0, "length": 1.0}, "air"),
    (PathPair, {"path1": (VACUUM,), "path2": (SILICA,)}, (SILICA,)),
    (AirConditions, {"temperature_c": 15.0, "pressure_pa": 101325.0,
                     "relative_humidity": 0.2}, 20.0),
    (CatalogEntry, {"label": "vacuum", "alpha": 0.0, "beta": 0.0, "note": "reference"}, "x"),
    (VerificationReport, {"grid": (0.0, 1.0), "closed_form": (0.5, 0.25),
                          "numeric": (0.5, 0.25), "max_rel_err": 0.0, "points_used": 15}, (2.0,)),
    (SamplerConfig, {"seed": 42, "n_samples": 100, "n_photons": 1}, 7),
    (WidthEstimate, {"sigma_hat": 3.5, "standard_error": 0.01, "n_samples": 100,
                     "mean_hat": 25.0, "mean_standard_error": 0.35}, 3.6),
]
IDS = [cls.__name__ for cls, _, _ in SAMPLES]

# The defaults, as declared, of the classes that have any.
DEFAULTS = {
    AirConditions: {"temperature_c": 15.0, "pressure_pa": 101325.0, "relative_humidity": 0.0},
    SamplerConfig: {"n_photons": 1},
}

parametrize_samples = pytest.mark.parametrize("cls, fields, other", SAMPLES, ids=IDS)


@parametrize_samples
def test_construction_by_keyword_and_by_position_agree(cls, fields, other):
    by_keyword, by_position = cls(**fields), cls(*fields.values())
    assert by_keyword == by_position
    assert tuple(vars(by_keyword).items()) == tuple(fields.items())


@parametrize_samples
def test_omitted_fields_take_their_defaults(cls, fields, other):
    defaults = DEFAULTS.get(cls, {})
    required = {name: value for name, value in fields.items() if name not in defaults}
    assert vars(cls(**required)) == {**fields, **defaults}


@parametrize_samples
def test_equal_records_hash_as_their_field_tuple(cls, fields, other):
    first, second = cls(**fields), cls(**fields)
    assert first is not second and first == second and not first != second
    assert hash(first) == hash(second) == hash(tuple(fields.values()))


@parametrize_samples
def test_a_changed_field_or_another_class_is_unequal(cls, fields, other):
    first_name = next(iter(fields))
    changed = cls(**{**fields, first_name: other})
    twin = record(type(f"Twin{cls.__name__}", (), {"__annotations__": dict.fromkeys(fields)}))
    for different in (changed, twin(**fields), tuple(fields.values())):
        assert cls(**fields) != different and different != cls(**fields)
    assert cls(**fields).__eq__(twin(**fields)) is NotImplemented


@parametrize_samples
def test_repr_names_each_field(cls, fields, other):
    body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__qualname__}({body})"


def test_repr_text():
    assert repr(StateSpec(StateKind.ANTI_CORRELATED_FOCK, 10)) == (
        "StateSpec(kind=<StateKind.ANTI_CORRELATED_FOCK: 'anti'>, n_photons=10)")
    assert repr(VACUUM) == "MediumSegment(label='vacuum', alpha=0.0, beta=0.0, length=1.0)"


@parametrize_samples
def test_fields_can_be_neither_assigned_nor_deleted(cls, fields, other):
    instance = cls(**fields)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(instance, name, other)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(instance, name)
    assert vars(instance) == fields


@pytest.mark.parametrize("args, kwargs", [
    (("vacuum", 0.0, 0.0), {}),
    (("vacuum", 0.0, 0.0, 1.0, 2.0), {}),
    (("vacuum", 0.0, 0.0, 1.0), {"colour": "blue"}),
    (("vacuum", 0.0, 0.0, 1.0), {"label": "air"}),
    ((), {"label": "vacuum", "alpha": 0.0, "beta": 0.0}),
], ids=["missing", "extra-positional", "unknown-keyword", "repeated", "missing-keyword"])
def test_bad_arguments_are_type_errors(args, kwargs):
    with pytest.raises(TypeError, match=r"^MediumSegment\(\) takes \('label', 'alpha', 'beta', "
                                        r"'length'\), defaults for \(\); got "):
        MediumSegment(*args, **kwargs)


def test_own_init_is_kept():
    pair = PathPair(iter([VACUUM]), [SILICA])
    assert pair.path1 == (VACUUM,) and pair.path2 == (SILICA,)
    with pytest.raises(TypeError):
        PathPair((VACUUM,))

