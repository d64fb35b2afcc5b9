"""Exact toolkit for delegated-choice menus.

A principal restricts an informed, biased agent to a menu of actions; the
agent picks the action maximizing value-plus-bias, and the principal collects
the value.  This package evaluates menus exactly (rational arithmetic with a
symbolic tie-breaking infinitesimal), finds optimal menus and best threshold
menus, builds the worst-case families and hardness reductions that
characterize threshold performance, and checks the provable guarantees as
executable properties.

The instance generators (``families``) and the hardness reductions
(``reductions``) load on first use of one of their names, so a command that
needs neither does not import them.
"""

import importlib
import types

from .evaluate import (
    Decomposition,
    EvalReport,
    InterferenceAction,
    decompose,
    derandomize_interference,
    eval_bruteforce_product,
    eval_correlated,
    eval_independent_dp,
    evaluate,
)
from .model import (
    Action,
    CapExceededError,
    CorrelatedInstance,
    DelegationError,
    IndependentInstance,
    Instance,
    InvalidInstanceError,
    Menu,
    NoFeasibleActionError,
    OUTSIDE,
    Profile,
    agent_choice,
    deterministic,
    full_menu,
    make_support,
    shift_biases,
    threshold_menu,
    validate_menu,
)
from .serialize import (
    ParseError,
    dump_instance,
    dumps_instance,
    load_instance,
    loads_instance,
)
from .solve import (
    BoundReport,
    SolveResult,
    best_threshold,
    bound_report,
    brute_force_opt,
    log2_at_least,
    solve,
    threshold_menus,
)
from .xnum import IOTA, ONE, XNum, ZERO, as_fraction, xnum, xsum

__version__ = "0.1.0"

# Names loaded on first use (PEP 562), by the module that defines them.
_LAZY = {
    "families": (
        "from_assortment",
        "gen_log_family",
        "gen_outside_family",
        "gen_random",
        "gen_three_approx",
    ),
    "reductions": (
        "Graph",
        "PartitionInstance",
        "has_partition",
        "min_vertex_cover",
        "minimal_valid_m",
        "parse_graph",
        "reduce_integer_partition",
        "reduce_vertex_cover",
    ),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}

# Every public name bound above, and every lazy one: no module object, nothing private.
__all__ = sorted(
    [k for k, v in globals().items() if k[0] != "_" and not isinstance(v, types.ModuleType)]
    + list(_LAZY_HOME)
)


def __getattr__(name: str):
    if name in _LAZY:  # the submodule itself, as an eager import would have bound it
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY_HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    # As if every name were imported eagerly: the lazy ones, not the machinery.
    machinery = {"importlib", "types", "_LAZY", "_LAZY_HOME", "__getattr__", "__dir__"}
    return sorted((globals().keys() - machinery) | _LAZY_HOME.keys() | _LAZY.keys())
