"""Lazy package surfaces (PEP 562).

A package ``__init__`` that imports its submodules to re-export their
names makes every ``import repro.<anything>`` pay for the whole package.
A package built with :func:`lazy_exports` imports a submodule only when
one of its public names is first read, so a command loads just the
modules it runs.  ``from repro.core import ChannelSet`` is unchanged: the
``from`` import reads the name through the package's ``__getattr__``.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for the package ``package``.

    ``exports`` maps a submodule, relative to ``package`` (``"alignment"``,
    ``"phy.packet"``), to the public names it defines.  The first read of
    a name imports its submodule and binds the name in the package, so
    later reads are plain attribute lookups.
    """
    owner: Dict[str, str] = {
        name: f"{package}.{module}" for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> object:
        try:
            module = owner[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        # ``__import__``, unlike ``importlib.import_module``, shows in
        # ``python -X importtime``.
        __import__(module)
        value = getattr(sys.modules[module], name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return __getattr__, __dir__, sorted(owner)
