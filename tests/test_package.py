"""The package's public names and submodules resolve on first use (PEP 562)."""

import json

import pytest

import slabgreen

from processes import Child

# The public names, as the package listed them when its __init__ imported every submodule.
ALL = [
    "ConfigError", "Constant", "DecayRateReport", "DielectricModel", "DomainError", "Drude", "DrudeLorentz",
    "EmissionParams", "IdentityReport", "LimitStudyReport", "QuadratureError", "SlabCoefficients", "SlabGeometry",
    "Tabulated", "WaveContext", "boundary_term_b", "boundary_term_f", "coefficients", "context_from_index",
    "decay_from_quadrature", "decay_rate_corrected", "decay_rate_uncorrected", "decay_report", "green", "green_dx",
    "green_tensor_vacuum", "green_vacuum_1d", "helmholtz_residual", "identity_report", "im_green_coincident",
    "integrate_adaptive", "interface_mismatch", "lhs_quadrature", "limit_study", "make_context", "permittivity",
    "refractive_index", "scalar_green_g0", "vacuum_decay_3d",
]
# Each public name, by the submodule that defines it.
HOMES = {
    "dielectric": "Constant DielectricModel Drude DrudeLorentz Tabulated permittivity refractive_index",
    "emission": "DecayRateReport LimitStudyReport decay_from_quadrature decay_rate_corrected decay_rate_uncorrected "
                "decay_report limit_study",
    "errors": "ConfigError DomainError QuadratureError",
    "identity": "IdentityReport boundary_term_b boundary_term_f identity_report integrate_adaptive lhs_quadrature",
    "slab_green": "SlabCoefficients SlabGeometry WaveContext coefficients context_from_index green green_dx "
                  "green_vacuum_1d helmholtz_residual interface_mismatch make_context",
    "vacuum3d": "EmissionParams green_tensor_vacuum im_green_coincident scalar_green_g0 vacuum_decay_3d",
}
NAME_HOMES = {name: f"slabgreen.{module}" for module, names in HOMES.items() for name in names.split()}
SUBMODULES = ["cli", "config", "dielectric", "emission", "errors", "identity", "slab_green", "vacuum3d", "writer"]

# After a bare `import slabgreen` in a fresh process, prints as JSON the
# slabgreen modules it loaded, the names of the submodules of its first JSON
# argument as attributes of the package, and the public names of its second
# (name -> defining submodule) that resolve to that submodule's object.
PROBE = """\
import json, sys
import slabgreen

bare = sorted(name for name in sys.modules if name.partition(".")[0] == "slabgreen")
names, homes = map(json.loads, sys.argv[1:])
submodules = {name: getattr(slabgreen, name).__name__ for name in names}
resolved = [name for name, home in homes.items() if getattr(slabgreen, name) is getattr(sys.modules[home], name)]
print(json.dumps([bare, submodules, resolved]))
"""


@pytest.mark.child(Child("-c", PROBE, json.dumps(SUBMODULES), json.dumps(NAME_HOMES)))
def test_a_bare_import_loads_the_package_alone_and_resolves_every_name(child):
    assert sorted(NAME_HOMES) == ALL
    assert child.returncode == 0, child.stderr
    bare, submodules, resolved = json.loads(child.stdout)
    assert bare == ["slabgreen"]
    assert submodules == {name: f"slabgreen.{name}" for name in SUBMODULES}
    assert resolved == list(NAME_HOMES)


def test_the_public_surface():
    assert slabgreen.__all__ == ALL
    assert set(ALL) <= set(dir(slabgreen))
    namespace = {}
    exec("from slabgreen import *", namespace)
    assert {name: value for name, value in namespace.items() if name != "__builtins__"} == {
        name: getattr(slabgreen, name) for name in ALL}
    assert slabgreen.emission.EmissionParams is slabgreen.EmissionParams
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        slabgreen.no_such_name
    assert not hasattr(slabgreen, "__wrapped__")
