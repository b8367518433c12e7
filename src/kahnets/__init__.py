"""Process networks as a graph IR, with rewriting, stream semantics, and a
sampled continuous-time backend.

Importing the package loads none of its submodules.  Each public name below,
and each submodule, is loaded on first use (PEP 562 ``__getattr__``), so a
program pays only for the layers it runs: ``kahnets.Net`` loads ``nets``,
``kahnets.denote_it`` loads ``nstime`` with ``kahn`` and ``nets`` under it.
``from kahnets import *`` loads every module that ``__all__`` names.

``kahnets.cli`` does the same per subcommand: a command loads the modules it
runs when it runs.  Four of its attributes, ``std_interpretation``,
``it_interpretation``, ``validate`` and ``delta_independence``, are looked up
when a command runs, so that a benchmark tracer or a test can rebind them.
"""

__version__ = "0.1.0"

#: Each submodule and the public names the package takes from it.
_EXPORTS = {
    "errors": ("ArityMismatch", "ArityTooSmall", "ConfigError", "DslSyntaxError",
               "KahnetsError", "MissingBinding", "MonotonicityViolation", "NonProductive",
               "OutOfDomain", "StaleRedex", "UndeclaredPort", "UnknownKind", "UnknownSymbol"),
    "iso": ("NetIso", "find_iso", "identity_iso"),
    "kahn": ("BOT", "Interpretation", "Stream", "StreamFn", "as_stream_fn", "causal",
             "check_functoriality", "const_source", "denote", "divc_fn", "eps_fn", "iota_fn",
             "is_prefix", "minus_fn", "plus_fn", "pointwise", "scale_fn", "trace_fn"),
    "nets": ("Net", "Signature", "ValidationReport", "compose", "duplication", "erasure",
             "generator", "identity", "projection", "structural", "symmetry", "tensor", "trace",
             "validate"),
    "nstime": ("CtFn", "DeltaSchedule", "ItStream", "SamplingPeriod", "StandardPart",
               "default_schedule", "delta_independence", "denote_it", "derivative_at",
               "integral", "sample", "stable_floor", "standard_part", "standardize"),
    "randnets": ("GenParams", "gen_net", "gen_random_net"),
    "rewrite": ("Redex", "SharedNet", "apply_redex", "is_shared", "normalize", "redexes",
                "se_equivalent", "se_witness"),
    "laws": ("CheckResult", "SuiteResult", "check_axiom", "run_suite"),
    "stdnets": ("KINDS", "STD_SIG", "build", "it_interpretation", "std_interpretation",
                "std_signature"),
    "dsl": ("NetDocument", "NetDef", "OpDef", "format_document", "net_to_def",
            "parse_document"),
}
#: Submodules that are not public names of the package but load on access too.
_OTHER_SUBMODULES = ("cli", "config", "exprs")

_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_ORIGIN, *_EXPORTS])


def __getattr__(name: str):
    import importlib
    if name in _EXPORTS or name in _OTHER_SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_OTHER_SUBMODULES})
