"""Exact arm/leg statistics on skew diagram regions, with certified
statistic-preserving bijections and exhaustive identity checks.

The submodules load on first use (PEP 562): ``import hookpair`` loads none of
them, and ``hookpair.X`` loads the modules of ``_MODULES`` in turn up to the
one whose ``__all__`` lists ``X``; a submodule name, ``cli`` included, loads
that module alone with its own imports."""

__version__ = "0.1.0"

# dependency order, so the search loads no module that the owner of a name
# does not load itself; no other module imports render, so it comes last
_MODULES = ("errors", "diagrams", "dyck", "bijections", "projective", "sweep", "render")

# {public name: the module that owns it}.  The object is read from its module
# at every access, so a name rebound there (a test double, a timing wrapper)
# shows through the package too.
_owners = {}


def _module(name: str):
    # the import statement's path rather than importlib.import_module, so
    # that python -X importtime lists the modules loaded here
    __import__(f"{__name__}.{name}")
    return globals()[name]


def __getattr__(name: str):
    # from hookpair import cli asks for the attribute before it imports the
    # submodule, so cli is loaded directly too rather than searched for
    if name in _MODULES or name == "cli":
        return _module(name)
    if name == "__all__":
        return ["__version__", *(n for m in _MODULES for n in _module(m).__all__)]
    if name not in _owners:
        for m in _MODULES:
            module = _module(m)
            if name in module.__all__:
                _owners[name] = module
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_owners[name], name)


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
