"""The benchmark's own correctness check, independent of ``repro``.

A returned decomposition is evaluated at seeded random input points with
a small evaluator written here, over the serialized (JSON) forms only,
and compared with direct evaluation of the input polynomials' terms.
Both sides are reduced modulo ``2^m`` (the output width), because the
flow may return canonical-form representations that agree with the input
only as bit-vector functions, not as integer polynomials.  Nothing from
``repro.verify`` or ``repro.rings`` is used, so a bug there cannot hide a
wrong result here.
"""

from __future__ import annotations

import random
from typing import Any

POINTS_PER_SYSTEM = 4


def _evaluate(node: dict[str, Any], env: dict[str, int],
              blocks: dict[str, Any], memo: dict[str, int],
              modulus: int) -> int:
    op = node["op"]
    if op == "const":
        return int(node["value"]) % modulus
    if op == "var":
        return env[node["name"]] % modulus
    if op == "block":
        name = node["name"]
        if name not in memo:
            memo[name] = _evaluate(blocks[name], env, blocks, memo, modulus)
        return memo[name]
    if op == "add":
        total = 0
        for operand in node["operands"]:
            total += _evaluate(operand, env, blocks, memo, modulus)
        return total % modulus
    if op == "mul":
        total = 1
        for operand in node["operands"]:
            total = total * _evaluate(operand, env, blocks, memo, modulus) % modulus
        return total
    if op == "pow":
        base = _evaluate(node["base"], env, blocks, memo, modulus)
        return pow(base, int(node["exponent"]), modulus)
    raise ValueError(f"unknown expression op {op!r}")


def _direct(poly: dict[str, Any], env: dict[str, int], modulus: int) -> int:
    total = 0
    for exps, coeff in poly["terms"]:
        term = int(coeff)
        for var, exp in zip(poly["vars"], exps):
            term *= pow(env[var], int(exp), modulus)
        total += term
    return total % modulus


def check_decomposition(system: dict[str, Any],
                        decomposition: dict[str, Any] | None,
                        rng: random.Random) -> bool:
    """Does ``decomposition`` compute ``system`` at ``POINTS_PER_SYSTEM``
    random inputs drawn from ``rng``?

    ``system`` and ``decomposition`` are the JSON forms ``repro`` serializes
    (``{"kind": "system", ...}`` and ``{"kind": "decomposition", ...}``).
    Any malformed decomposition (missing block, cycle, wrong output count)
    is a failure, never an exception.
    """
    if decomposition is None:
        return False
    signature = system["signature"]
    modulus = 1 << int(signature["output_width"])
    widths = {str(name): int(width) for name, width in signature["inputs"]}
    polys = system["polys"]
    outputs = decomposition.get("outputs", [])
    blocks = decomposition.get("blocks", {})
    if len(outputs) != len(polys):
        return False
    try:
        for _ in range(POINTS_PER_SYSTEM):
            env = {name: rng.randrange(1 << width) for name, width in widths.items()}
            memo: dict[str, int] = {}
            for output, poly in zip(outputs, polys):
                got = _evaluate(output, env, blocks, memo, modulus)
                if got != _direct(poly, env, modulus):
                    return False
    except (KeyError, ValueError, TypeError, RecursionError):
        return False
    return True
