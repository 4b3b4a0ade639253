"""Per-operation answer checks; none of them uses expode's own verifier."""

from __future__ import annotations

from exact import (BACKWARD_TOL, EP, backward_error, conditions_mismatch,
                   resonance_mismatch, roots_mismatch)


def problems(op, res) -> list[str]:
    """Why the program's answer to `op` is wrong; empty when it is right."""
    if op.kind == "verify":
        return _verify_problems(op, res)
    if res.exit_code not in (0, 1):
        return [f"exit {res.exit_code}: {res.error}"]
    out = []
    why = roots_mismatch(res.pairs, op.roots)
    if why:
        out.append(why)
    zero = EP()
    for k, b in enumerate(res.basis):
        be = backward_error(op.lhs, zero, EP.from_program(b))
        if be > BACKWARD_TOL:
            out.append(f"basis element {k}: backward error {be:.1e}")
    part = EP.from_program(res.particular)
    be = backward_error(op.lhs, op.rhs, part)
    if be > BACKWARD_TOL:
        out.append(f"particular solution: backward error {be:.1e}")
    why = resonance_mismatch(op.rhs, part, op.roots)
    if why:
        out.append(f"particular solution: {why}")
    if op.ivp:
        fitted = EP.from_program(res.fitted)
        be = backward_error(op.lhs, op.rhs, fitted)
        if be > BACKWARD_TOL:
            out.append(f"fitted solution: backward error {be:.1e}")
        why = conditions_mismatch(fitted, op.ivp)
        if why:
            out.append(f"fitted solution: {why}")
    if out and res.status == "verified":
        out.append("reported verified")
    if not out and res.status != "verified":
        out.append("reported unverified, yet every exact check passes")
    return out


def _verify_problems(op, res) -> list[str]:
    be = backward_error(op.lhs, op.rhs, op.cand)
    truth = "verified" if be <= BACKWARD_TOL else "unverified"
    if truth != op.expect:
        return [f"benchmark input: candidate built as {op.expect} has "
                f"backward error {be:.1e}"]
    if res.exit_code not in (0, 1):
        return [f"exit {res.exit_code}: {res.error}"]
    if res.status != truth:
        return [f"reported {res.status}, exact backward error {be:.1e}"]
    return []
