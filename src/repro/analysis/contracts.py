"""Debug-mode runtime shape/dtype contracts for ndarray signatures.

Static aliases (:mod:`repro.core.typing`) pin dtypes; they cannot pin
ranks, dimension sizes, or the cross-argument agreements the batched
kernels live on (``measurements`` and ``initial`` sharing ``n_links``,
``F`` and ``taus`` sharing ``n_taus``).  :func:`shaped` closes that
gap at call time:

    @shaped("(n_links, n_freqs) complex128", "(n_freqs,) float64",
            ret="(n_links, n_taus) complex128")
    def solve(measurements, frequencies_hz): ...

Shape-spec DSL (one spec per checked parameter, in declaration order;
``None`` skips a parameter)::

    spec  := "(" [dim ("," dim)* [","]] ")" [dtype]
    dim   := INTEGER        # axis must have exactly this size
           | NAME           # symbolic: binds on first use, must agree
           |                #   across every later use in the same call
           | "_"            # wildcard: any size
    dtype := a numpy dtype name ("complex128", "float64", "bool", ...)
             # omitted -> any dtype

``"()"`` means a rank-0 (scalar) array.  A parameter whose value is
``None`` is skipped, so optional array arguments stay optional.
Violations raise :class:`ContractError` (a ``TypeError``) naming the
function, the argument, and — for symbolic mismatches — where the
dimension was first bound.

Zero production cost by construction: the decorator consults
``REPRO_CHECK_CONTRACTS`` **at decoration time**.  Unless the
environment enables checking, ``@shaped(...)`` returns the original
function untouched except for a ``__shape_contract__`` attribute — no
wrapper frame, no signature binding, nothing on the call path.  The
test suite enables it process-wide via the root ``conftest.py``
(``REPRO_CHECK_CONTRACTS=1``); the repo benchmark (``perfbench/``)
pins it off, so its timings measure the code production runs.

Spec strings are parsed eagerly, before the enabled gate — a typo in a
contract fails at import time in every mode, not just under the flag.
"""

from __future__ import annotations

import functools
import inspect
import os
import re
from dataclasses import dataclass
from typing import Any, Callable, TypeVar

import numpy as np

__all__ = [
    "ContractError",
    "ShapeSpec",
    "SpecError",
    "contracts_enabled",
    "parse_spec",
    "shaped",
]

ENV_FLAG = "REPRO_CHECK_CONTRACTS"
"""Environment variable that turns call-time checking on (``"1"``)."""

F = TypeVar("F", bound=Callable[..., Any])


class SpecError(ValueError):
    """A shape-spec string does not parse (raised at decoration time)."""


class ContractError(TypeError):
    """A call violated its declared ndarray shape/dtype contract."""


_SPEC_RE = re.compile(
    r"^\s*\(\s*(?P<dims>[^()]*?)\s*\)\s*(?P<dtype>[A-Za-z_]\w*)?\s*$"
)
_NAME_RE = re.compile(r"^[A-Za-z_]\w*$")


@dataclass(frozen=True)
class ShapeSpec:
    """One parsed contract: per-axis dims plus an optional exact dtype.

    ``dims`` entries are ``int`` (exact size), ``str`` (symbolic name,
    bound per call), or ``None`` (the ``_`` wildcard).
    """

    text: str
    dims: tuple[int | str | None, ...]
    dtype: np.dtype | None

    @property
    def rank(self) -> int:
        """Number of axes the contract requires."""
        return len(self.dims)


def parse_spec(text: str) -> ShapeSpec:
    """Parse one DSL string (see module docstring for the grammar)."""
    match = _SPEC_RE.match(text)
    if match is None:
        raise SpecError(
            f"malformed shape spec {text!r}: expected '(dim, ...) [dtype]'"
        )
    dims_text = match.group("dims").strip()
    dims: list[int | str | None] = []
    if dims_text:
        tokens = [t.strip() for t in dims_text.split(",")]
        if tokens and tokens[-1] == "":  # trailing comma: "(n,)"
            tokens.pop()
        for token in tokens:
            if not token:
                raise SpecError(f"empty dimension in shape spec {text!r}")
            if token == "_":
                dims.append(None)
            elif token.isdigit():
                dims.append(int(token))
            elif _NAME_RE.match(token):
                dims.append(token)
            else:
                raise SpecError(
                    f"bad dimension {token!r} in shape spec {text!r}: "
                    "expected an integer, a name, or '_'"
                )
    dtype_name = match.group("dtype")
    dtype: np.dtype | None = None
    if dtype_name is not None:
        try:
            dtype = np.dtype(dtype_name)
        except TypeError as exc:
            raise SpecError(
                f"unknown dtype {dtype_name!r} in shape spec {text!r}"
            ) from exc
    return ShapeSpec(text=text, dims=tuple(dims), dtype=dtype)


def contracts_enabled() -> bool:
    """Whether ``REPRO_CHECK_CONTRACTS`` enables call-time checking."""
    return os.environ.get(ENV_FLAG, "") == "1"


def _check_value(
    func_name: str,
    label: str,
    spec: ShapeSpec,
    value: Any,
    bindings: dict[str, tuple[int, str, int]],
) -> None:
    """Verify one value against one spec, updating symbolic bindings."""
    if not isinstance(value, np.ndarray):
        raise ContractError(
            f"{func_name}: {label} must be an ndarray matching "
            f"'{spec.text}', got {type(value).__name__}"
        )
    if value.ndim != spec.rank:
        raise ContractError(
            f"{func_name}: {label} must have rank {spec.rank} "
            f"('{spec.text}'), got shape {value.shape}"
        )
    if spec.dtype is not None and value.dtype != spec.dtype:
        raise ContractError(
            f"{func_name}: {label} must have dtype {spec.dtype}, "
            f"got {value.dtype} (shape {value.shape})"
        )
    for axis, dim in enumerate(spec.dims):
        size = value.shape[axis]
        if dim is None:
            continue
        if isinstance(dim, int):
            if size != dim:
                raise ContractError(
                    f"{func_name}: {label} axis {axis} must have size "
                    f"{dim} ('{spec.text}'), got shape {value.shape}"
                )
        else:
            bound = bindings.get(dim)
            if bound is None:
                bindings[dim] = (size, label, axis)
            elif bound[0] != size:
                raise ContractError(
                    f"{func_name}: {label} axis {axis} ('{dim}') has "
                    f"size {size}, but '{dim}' = {bound[0]} was bound "
                    f"by {bound[1]} axis {bound[2]}"
                )


def shaped(
    *arg_specs: str | None,
    ret: str | None = None,
    enabled: bool | None = None,
) -> Callable[[F], F]:
    """Declare (and, in debug mode, enforce) an ndarray call contract.

    Args:
        arg_specs: One DSL spec per parameter, matched to the
            function's parameters in declaration order (``self`` /
            ``cls`` are skipped automatically).  ``None`` leaves a
            parameter unchecked.  Fewer specs than parameters is fine;
            more is a :class:`SpecError`.
        ret: Optional spec for the return value.
        enabled: Force checking on/off for this one function,
            overriding the environment gate — for tests that must
            exercise both modes in one process.

    Returns:
        A decorator preserving the wrapped function's signature (the
        ``F -> F`` typing keeps mypy's view of the function intact).
    """
    parsed: tuple[ShapeSpec | None, ...] = tuple(
        None if spec is None else parse_spec(spec) for spec in arg_specs
    )
    ret_spec = None if ret is None else parse_spec(ret)

    def decorate(func: F) -> F:
        active = contracts_enabled() if enabled is None else enabled
        contract = {"args": parsed, "ret": ret_spec}
        if not active:
            func.__shape_contract__ = contract  # type: ignore[attr-defined]
            return func
        signature = inspect.signature(func)
        names = [
            p.name
            for p in signature.parameters.values()
            if p.kind
            in (
                inspect.Parameter.POSITIONAL_ONLY,
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                inspect.Parameter.KEYWORD_ONLY,
            )
        ]
        if names and names[0] in ("self", "cls"):
            names = names[1:]
        if len(parsed) > len(names):
            raise SpecError(
                f"{func.__qualname__}: {len(parsed)} shape specs for "
                f"{len(names)} checkable parameters"
            )
        # Deliberately non-strict: fewer specs than parameters leaves
        # the tail unchecked (validated above to never exceed it).
        checked = [
            (name, spec)
            for name, spec in zip(names, parsed, strict=False)
            if spec is not None
        ]

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            bound = signature.bind(*args, **kwargs)
            bindings: dict[str, tuple[int, str, int]] = {}
            for name, spec in checked:
                value = bound.arguments.get(name)
                if value is None:
                    continue
                _check_value(
                    func.__qualname__, f"argument '{name}'", spec, value,
                    bindings,
                )
            result = func(*args, **kwargs)
            if ret_spec is not None and result is not None:
                _check_value(
                    func.__qualname__, "return value", ret_spec, result,
                    bindings,
                )
            return result

        wrapper.__shape_contract__ = contract  # type: ignore[attr-defined]
        return wrapper  # type: ignore[return-value]

    return decorate
