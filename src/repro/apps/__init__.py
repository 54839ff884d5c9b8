"""Benchmark applications from the paper's evaluation (§III): GEO, ISx, UTS,
Graph500, and HPGMG-FV — each with its reference variants and a HiPER
variant, sharing workload generators and validators."""

import functools
from typing import Any, Callable, Mapping

from repro.util.errors import ConfigError


def variant_main(app: str, variants: Mapping[str, Callable], variant: str,
                 cfg: Any) -> Callable:
    """The rank main of one of ``app``'s ``variants``: a
    ``functools.partial`` of its module-level function, so it pickles for
    the ``subprocess`` launcher."""
    try:
        fn = variants[variant]
    except KeyError:
        raise ConfigError(
            f"unknown {app} variant {variant!r}; known: {sorted(variants)}"
        ) from None
    return functools.partial(fn, cfg=cfg)
