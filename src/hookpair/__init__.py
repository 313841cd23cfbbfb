"""Exact arm/leg statistics on skew diagram regions, with certified
statistic-preserving bijections and exhaustive identity checks.

The submodules load on first use (PEP 562): ``import hookpair`` loads none of
them, ``hookpair.X`` loads the one module whose row of ``_EXPORTS`` lists
``X``, with that module's own imports, and a submodule name, ``cli``
included, loads that module alone with its own imports.  A name no row lists
raises AttributeError without loading anything."""

__version__ = "0.1.0"

# {module: its public names}, the one list of them: each module's __all__ is
# its row, and hookpair.__all__ is the rows in this order
_EXPORTS = {
    "errors": (
        "HookpairError",
        "NotWeaklyDecreasing",
        "PartExceedsN",
        "WrongLength",
        "WrongN",
        "NotAnInteger",
        "EmptyField",
        "EmptySet",
        "NotASubset",
        "NotRising",
        "IndexOutOfRange",
        "NotADyckPath",
        "NoMatchingDownStep",
        "KindWithoutDiagonal",
        "NoShiftRow",
        "UnknownChoice",
        "NotContiguous",
        "CellNotInSet",
        "CellNotInT",
        "DuplicateSource",
        "NotInFamily",
        "CounterexampleFound",
    ),
    "diagrams": (
        "REGION_KINDS",
        "Partition",
        "CellSet",
        "conjugate",
        "build_region",
        "al_multiset",
        "hook_multiset",
        "arm_slice",
        "arm_prefix",
        "first_multiset_difference",
    ),
    "dyck": (
        "Label",
        "SigmaSequence",
        "DyckPath",
        "label_cells",
        "build_sigma",
        "build_dyck",
        "pair_updown",
        "pairing_tuple",
    ),
    "bijections": (
        "MapEntry",
        "CellMap",
        "CertRecord",
        "BijectionCertificate",
        "rot_T",
        "phi_map",
        "zeta_map",
        "psi_map",
        "build_certificate",
        "theorem_report",
        "verify_theorem",
    ),
    "projective": (
        "StrictPartition",
        "ClassBPartition",
        "DiagonalSpec",
        "MDecomposition",
        "alpha_from_strict",
        "is_class_B",
        "diagonal_spec",
        "split_pq",
        "shift_Ti",
        "check_prop_techprop",
        "m_decomposition",
        "projective_report",
        "verify_projective",
    ),
    "sweep": (
        "SweepConfig",
        "SweepReport",
        "enumerate_partitions",
        "enumerate_class_B",
        "run_sweep",
    ),
    "render": ("render_ascii",),
}

# {public name: the module whose row lists it}, read off the table
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}


def _module(name: str):
    # the import statement's path rather than importlib.import_module, so
    # that python -X importtime lists the modules loaded here
    __import__(f"{__name__}.{name}")
    return globals()[name]


def __getattr__(name: str):
    if name in _EXPORTS or name == "cli":
        return _module(name)
    if name == "__all__":
        return ["__version__", *_OWNER]
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # read from the module at every access, so a name rebound there (a test
    # double, a timing wrapper) shows through the package too
    return getattr(_module(_OWNER[name]), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_OWNER})
