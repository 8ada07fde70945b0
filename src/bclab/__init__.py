"""Numerical laboratory for the mean-field Blume-Capel model.

Exact phase diagram and thermodynamic magnetization, exact finite-size spin
laws, and desk-scale verification of the scaling laws along parameter
sequences approaching second-order and tricritical points, including the
threshold speed separating the regime where the thermodynamic magnetization
faithfully estimates the finite-size magnetization from the regime where it
does not.

``model``, ``minimize`` and ``phase`` load with the package and need no numpy.
The array layers enter sys.modules at once, but run and import numpy only at
the first use of an attribute (or name, PEP 562). That first use runs the
layer under one lock, so another thread waits for the whole module.
"""

import importlib.util as _util
import sys as _sys
import threading as _threading
import types as _types

from .model import (ModelParams, cumulant, cumulant_deriv, free_energy,
                    free_energy_deriv)
from .minimize import ScaledFreeEnergy, magnetization
from .phase import (BETA_C, CriticalConstants, PhaseRegion, classify,
                    critical_constants, first_order_k, second_order_k,
                    second_order_k_deriv, verify_tricritical_conjectures)

_LAZY = {  # the public names of the array layers
    "finite_size": "N_MAX EnumerationLimitError McEstimate SpinLawExact abs_moment "
                   "finite_size_law hs_lhs hs_rhs mc_estimate",
    "quadrature": "QuadratureError aitken_limit",
    "sequences": "EvenPolynomial MinimumSet Regime ScalingExponents SequenceSpec "
                 "SpecValidationError UnsupportedSequenceError XbarResult c4_coefficient "
                 "check_hypothesis_iiia check_hypothesis_v g_tilde gl_polynomial "
                 "limit_constant params_at spec_from_json spec_to_json validate "
                 "weak_limit_polynomial xbar",
    "harness": "AsymptoticsReport Estimator MdpReport ReportConstants ReportRow "
               "estimator_comparison mdp_rate_estimate run_finite_size_asymptotics "
               "run_thermo_asymptotics weak_limit_distance",
}
_HOME = {name: module for module, names in _LAZY.items() for name in names.split()}
_LOAD_LOCK = _threading.RLock()   # one for all layers, as one layer's run loads another
_RUNNING = set()


class _LazyLayer(_types.ModuleType):
    """An array layer whose module runs at the first attribute read. The read
    holds _LOAD_LOCK until the module has run and the layer is a plain
    module, so a read from another thread meanwhile waits; the loading
    thread's own reads during the run pass through."""

    def __getattribute__(self, attr):
        read = _types.ModuleType.__getattribute__
        with _LOAD_LOCK:
            spec = read(self, "__spec__")
            if type(self) is _LazyLayer and spec.name not in _RUNNING:
                _RUNNING.add(spec.name)
                try:
                    spec.loader.exec_module(self)
                finally:
                    _RUNNING.discard(spec.name)
                self.__class__ = _types.ModuleType
        return read(self, attr)


for _module in _LAZY:
    _spec = _util.find_spec(f"{__name__}.{_module}")
    _sys.modules[_spec.name] = globals()[_module] = _util.module_from_spec(_spec)
    globals()[_module].__class__ = _LazyLayer


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


__all__ = sorted({name for name in dir() if not name.startswith("_")} | set(_HOME))
__version__ = "0.1.0"
