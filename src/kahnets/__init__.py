"""Process networks as a graph IR, with rewriting, stream semantics, and a
sampled continuous-time backend."""

__version__ = "0.1.0"

from .errors import (ArityMismatch, ArityTooSmall, ConfigError, DslSyntaxError,
                     KahnetsError, MissingBinding, MonotonicityViolation,
                     NonProductive, OutOfDomain, StaleRedex, UndeclaredPort,
                     UnknownKind, UnknownSymbol)
from .iso import NetIso, find_iso, identity_iso
from .kahn import (BOT, Interpretation, Stream, StreamFn, as_stream_fn, causal,
                   check_functoriality, const_source, denote, divc_fn, eps_fn,
                   iota_fn, is_prefix, minus_fn, plus_fn, pointwise, scale_fn,
                   trace_fn)
from .nets import (Net, Signature, ValidationReport, compose, duplication,
                   erasure, generator, identity, projection, structural,
                   symmetry, tensor, trace, validate)
from .nstime import (CtFn, DeltaSchedule, ItStream, SamplingPeriod,
                     StandardPart, default_schedule, delta_independence,
                     denote_it, derivative_at, integral, sample, stable_floor,
                     standard_part, standardize)
from .randnets import GenParams, gen_net, gen_random_net
from .rewrite import (Redex, SharedNet, apply_redex, is_shared, normalize,
                      redexes, se_equivalent, se_witness)
from .laws import CheckResult, SuiteResult, check_axiom, run_suite
from .stdnets import KINDS, STD_SIG, build, it_interpretation, std_interpretation, std_signature
from .dsl import NetDocument, NetDef, OpDef, format_document, net_to_def, parse_document

__all__ = [name for name in dir() if not name.startswith("_")]
