"""Command-line front-end: spectra, relation suites, sweeps, and dumps.

Each subcommand builds its result once and _write writes it: as indented
JSON, or, where the subcommand has a text form and --format is not json, as
the CSV or text lines rendered from that same result (for sweep, from its
record stream), so the two forms cannot drift apart.

Exit codes: 0 success, 1 a relation check failed, 2 bad input or parameters
(a size over MAX_ENTRIES included, and an operator subcommand run without
numpy), 3 I/O failure.  Numbers are printed with round-trip-exact
formatting (repr), so CSV and JSON output of the same run carry identical
values.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import operator
import re
import sys

import cycosc

from .algebra import (
    AlgebraParams,
    DomainError,
    InvalidParamsError,
    new_params,
    params_from_dict,
    params_to_dict,
    require_order,
)
from .spectrum import _CLUSTER_TOL, _classify, analytic_spectrum, sweep

# Other package modules are reached as cycosc.<module>, whose lazy export imports
# a module on first use, so each subcommand loads only the modules it runs.

# Keeps every axis list under 32 MB and a sweep under about ten minutes at the
# measured ~0.3-0.5 ms per point; the largest documented grid has 6084 points.
MAX_GRID_POINTS = 1_000_000

# The memory budget: the most levels (--dim, --nmax), or entries of the largest
# arrays a command may form, that a command may ask for: lam^2 dim band entries
# for every verify, variant and hierarchy command (the algebra suite's stacked
# P_mu P_nu band; the hierarchy and the parasupercharge suites form lam dim),
# and dump's (lam + 4) dim^2 dense entries.  It is checked before anything is
# built, since Linux overcommit lets numpy's allocations succeed and the
# process is then killed without a message.  Measured peaks (x86-64, numpy 2)
# stay under about 1 GiB at the budget: at most ~860 B per --dim level (ossqm;
# the algebra suite ~180 B per level plus ~37 B per band entry; partners ~57 B
# and pssqm ~34 B per lam dim entry), ~520 B per spectrum level, ~155 B per
# dumped entry.
MAX_ENTRIES = 1 << 20


def _fmt(value) -> str:
    """Round-trip-exact text for a float (repr), lowercase for a boolean, empty
    for None; a string as it is."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else repr(float(value))


def _resolve_params(args) -> AlgebraParams:
    """Build parameters from --params file.json or --lambda/--alpha, exactly one."""
    inline = args.lam is not None or args.alpha is not None
    if args.params_file is not None and inline:
        raise DomainError("--params and --lambda/--alpha are mutually exclusive")
    if args.params_file is not None:
        with open(args.params_file, encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            # A JSONDecodeError or UnicodeDecodeError, or nesting too deep to parse.
            except (ValueError, RecursionError) as exc:
                raise DomainError(f"malformed params file: {exc}") from None
        return params_from_dict(obj)
    if args.lam is None or args.alpha is None:
        raise DomainError("provide either --params FILE or both --lambda and --alpha")
    try:
        head = [float(part) for part in args.alpha.split(",")]
    except ValueError as exc:
        raise DomainError(f"could not parse --alpha value {args.alpha!r}: {exc}") from None
    return new_params(args.lam, head)


def _require_sizes(args) -> None:
    """Raise DomainError for a size flag out of range: over MAX_ENTRIES, naming
    the flag, or levels 0..--nmax outside the truncation --dim."""
    lam = args.params.lam if hasattr(args, "params") else args.lam
    sizes = [("dim", getattr(args, "dim", 0), "levels"), ("nmax", getattr(args, "nmax", 0), "levels")]
    if args.command == "dump":
        sizes.append(("dim", (lam + 4) * args.dim**2, "dense entries, (lambda + 4) dim^2"))
    elif hasattr(args, "dim"):
        sizes.append(("dim", lam * lam * args.dim, "band entries, lambda^2 dim"))
    for flag, size, what in sizes:
        if size > MAX_ENTRIES:
            raise DomainError(f"{size} {what}, more than {MAX_ENTRIES}", name=flag)
    if args.command in ("hierarchy", "variant") and args.nmax >= args.dim:
        raise DomainError(f"--nmax must be below --dim, got {args.nmax} >= {args.dim}")


_AXIS_RE = re.compile(r"a(\d+)=(-?[0-9.eE+-]+):(-?[0-9.eE+-]+):(-?[0-9.eE+-]+)\Z")


def _parse_grid(text: str, lam: int) -> list[list[float]]:
    """Parse `a0=lo:hi:step[,a1=...]` into one value list per free parameter.

    The point count is checked against MAX_GRID_POINTS before any axis list
    is built.
    """
    spans: dict[int, tuple[float, float, int]] = {}
    for part in text.split(","):
        m = _AXIS_RE.match(part.strip())
        if m is None:
            raise DomainError(f"malformed grid axis {part!r}, expected aK=lo:hi:step")
        idx = int(m.group(1))
        try:
            lo, hi, step = (float(m.group(k)) for k in (2, 3, 4))
        except ValueError as exc:
            raise DomainError(f"malformed grid axis {part!r}: {exc}") from None
        if idx in spans:
            raise DomainError(f"duplicate grid axis a{idx}")
        if not all(math.isfinite(v) for v in (lo, hi, step)):
            raise DomainError(f"grid axis a{idx} needs finite lo, hi and step")
        if step <= 0:
            raise DomainError(f"grid axis a{idx} needs step > 0, got {step}")
        if hi < lo:
            raise DomainError(f"grid axis a{idx} needs hi >= lo")
        steps = (hi - lo) / step + 1e-6
        if not steps < MAX_GRID_POINTS:
            raise DomainError(f"--grid axis a{idx} has more than {MAX_GRID_POINTS} points")
        spans[idx] = (lo, step, int(math.floor(steps)) + 1)
    expected = set(range(lam - 1))
    if set(spans) != expected:
        want = ",".join(f"a{k}" for k in sorted(expected))
        got = ",".join(f"a{k}" for k in sorted(spans)) or "none"
        raise DomainError(f"grid must cover exactly {want}; got {got}")
    total = math.prod(count for _, _, count in spans.values())
    if total > MAX_GRID_POINTS:
        raise DomainError(f"--grid has {total} points, more than {MAX_GRID_POINTS}")
    # lo + step * k, not a running sum, so no rounding accumulates along an axis.
    return [
        [lo + step * k for k in range(count)]
        for lo, step, count in map(spans.get, sorted(spans))
    ]


def _write(args, result, lines=None) -> None:
    """Write a subcommand's result to --output, or stdout without one.

    lines, text lines rendered lazily from result, are written as they are
    generated unless --format is json; otherwise result is written as indented
    JSON (a numpy array as its list) and a final newline.
    """
    with contextlib.nullcontext(sys.stdout) if args.output is None else open(
        args.output, "w", encoding="utf-8"
    ) as fh:
        if lines is not None and getattr(args, "format", None) != "json":
            fh.writelines(line + "\n" for line in lines)
        else:
            json.dump(result, fh, indent=2, default=operator.methodcaller("tolist"))
            fh.write("\n")


def _spectrum_csv(result):
    yield "n,k,mu,energy"
    for level in result["levels"]:
        yield f"{level['n']},{level['k']},{level['mu']},{_fmt(level['energy'])}"
    yield "# " + ",".join(f"{key}={_fmt(value)}" for key, value in result["classification"].items())


def cmd_spectrum(args) -> int:
    lines = analytic_spectrum(args.params, args.nmax)
    report = _classify(args.params, lines, args.tol)
    result = {
        "params": params_to_dict(args.params),
        "levels": [{"n": l.n, "k": l.k, "mu": l.mu, "energy": l.energy} for l in lines],
        "classification": vars(report),
    }
    _write(args, result, _spectrum_csv(result))
    return 0


def _algebra(args, params: AlgebraParams):
    return None, cycosc.fock.check_relations(cycosc.fock.build_rep(params, args.dim), args.tol)


def _klein(args, params: AlgebraParams):
    return None, cycosc.fock.klein_reduction_check(cycosc.fock.build_rep(params, args.dim), args.tol)


def _partners(args, params: AlgebraParams):
    si = cycosc.shape_invariance
    return None, si.partner_check(si.build_hierarchy(params, args.dim), args.tol)


def _sqm2(args, params: AlgebraParams):
    si = cycosc.shape_invariance
    return None, si.sqm2_check(si.build_hierarchy(params, args.dim), args.mu, args.tol)


def _pssqm(args, params: AlgebraParams):
    sol = cycosc.variants.pssqm_build(params, args.mu, args.dim)
    return sol, cycosc.variants.pssqm_check(sol, params.lam - 1, args.tol)


def _pssqm_cubic(args, params: AlgebraParams):
    sol = cycosc.variants.pssqm_build(params, args.mu, args.dim)
    return sol, cycosc.variants.pssqm_cubic_check(sol, args.tol)


def _pseudo1(args, params: AlgebraParams):
    eta = args.eta if args.eta is not None else math.sqrt(2.0) * abs(args.c)
    sol = cycosc.variants.pseudo_family1_build(params, args.mu, args.c, eta, args.phi, args.dim)
    return sol, cycosc.variants.pseudo_check(sol, args.c, args.tol)


def _pseudo2(args, params: AlgebraParams):
    r = args.r if args.r is not None else cycosc.variants.equal_spacing_r(params, args.mu)
    sol = cycosc.variants.pseudo_family2_build(params, args.mu, args.c, r, args.dim)
    return sol, cycosc.variants.pseudo_check(sol, args.c, args.tol)


def _ossqm(args, params: AlgebraParams):
    sol = cycosc.variants.ossqm_build(params, args.mu, args.xi, args.phi, args.dim)
    return sol, cycosc.variants.ossqm_check(sol, args.tol)


# Suite name -> (runner, also a `variant --kind`), in --help order.  A runner maps
# (args, params) to (solution or None, report), with eta = sqrt(2)|c| for family 1
# and the equal-spacing r for family 2 as defaults.  It looks each package function
# up on its defining module when it runs, so that wrappers bound there see every call.
SUITES = {
    "algebra": (_algebra, False),
    "klein": (_klein, False),
    "partners": (_partners, False),
    "sqm2": (_sqm2, False),
    "pssqm": (_pssqm, True),
    "pssqm-cubic": (_pssqm_cubic, True),
    "pseudo1": (_pseudo1, True),
    "pseudo2": (_pseudo2, True),
    "ossqm": (_ossqm, True),
}


def _verify_text(result):
    relations = result["relations"]
    width = max(len(r["name"]) for r in relations)
    for r in relations:
        yield f"{r['name']:<{width}}  residual {r['residual']:.3e}  {'pass' if r['pass'] else 'FAIL'}"
    n_pass = sum(r["pass"] for r in relations)
    yield (
        f"suite {result['suite']}: {'OK' if result['ok'] else 'FAIL'} ({n_pass}/{len(relations)} pass,"
        f" headroom {result['headroom']}, tol {_fmt(result['tol'])})"
    )


def cmd_verify(args) -> int:
    run, _ = SUITES[args.suite]
    _, report = run(args, args.params)
    result = {
        "suite": args.suite,
        "ok": report.ok,
        "headroom": report.headroom,
        "tol": report.tol,
        "relations": report.relation_dicts(),
    }
    _write(args, result, _verify_text(result))
    return 0 if report.ok else 1


def _sweep_csv(records, lam: int):
    yield ",".join([f"alpha_{k}" for k in range(lam - 1)] + ["valid", "pattern", "threshold_energy"])
    for rec in records:
        row = [*rec.params.alpha[: lam - 1], rec.valid]
        row += [rec.report.pattern, rec.report.threshold_energy] if rec.report else [None, None]
        yield ",".join(map(_fmt, row))


def cmd_sweep(args) -> int:
    require_order(args.lam)
    # sweep checks its arguments, every grid point's head included, when called,
    # so a bad one writes nothing.
    records = sweep(args.lam, _parse_grid(args.grid, args.lam), n_max=args.nmax, tol=args.tol)
    _write(args, records, _sweep_csv(records, args.lam))
    return 0


def _hierarchy_csv(result):
    yield "sector,n,energy"
    for sector in result["sectors"]:
        for n, energy in enumerate(sector["energies"]):
            yield f"{sector['sector']},{n},{_fmt(energy)}"


def cmd_hierarchy(args) -> int:
    energies = cycosc.shape_invariance.build_hierarchy(args.params, args.dim).hmats.real_diagonal()
    # The hierarchy itself is not kept, so its bands are freed before writing.  Each
    # row stays a numpy array: the CSV streams it, and JSON lists it when written.
    result = {
        "params": params_to_dict(args.params),
        "sectors": [{"sector": mu, "energies": row[: args.nmax + 1]} for mu, row in enumerate(energies)],
    }
    _write(args, result, _hierarchy_csv(result))
    return 0


def cmd_variant(args) -> int:
    run, _ = SUITES[args.kind]
    sol, report = run(args, args.params)
    _write(args, cycosc.variants.variant_to_dict(sol, report, n_levels=args.nmax + 1))
    return 0 if report.ok else 1


def cmd_dump(args) -> int:
    _write(args, cycosc.fock.rep_to_dict(cycosc.fock.build_rep(args.params, args.dim)))
    return 0


def _add_params_flags(sub) -> None:
    sub.add_argument("--lambda", dest="lam", type=int, default=None, metavar="N",
                     help="algebra order (number of sectors)")
    sub.add_argument("--alpha", type=str, default=None, metavar="A0,A1,...",
                     help="first N-1 deformation parameters, comma separated")
    sub.add_argument("--params", dest="params_file", type=str, default=None,
                     metavar="FILE", help="JSON file {\"lambda\": N, \"alpha\": [...]}")


def _add_common_flags(sub, *names: str) -> None:
    specs = {
        "dim": dict(type=int, default=60, help="truncation dimension"),
        "tol": dict(type=float, default=1e-10, help="check/cluster tolerance"),
        "nmax": dict(type=int, default=20, help="highest level index"),
        "format": dict(choices=("csv", "json"), default="csv"),
        "output": dict(type=str, default=None, help="output path (default stdout)"),
    }
    for name in names:
        sub.add_argument(f"--{name}", **specs[name])


def _add_variant_flags(sub) -> None:
    sub.add_argument("--mu", type=int, default=0, help="family index")
    sub.add_argument("--c", type=float, default=1.0, help="pseudosupersymmetry scale")
    sub.add_argument("--eta", type=float, default=None,
                     help="family-1 mixing (default sqrt(2)|c|)")
    sub.add_argument("--phi", type=float, default=0.0, help="phase in [0, 2 pi)")
    sub.add_argument("--xi", type=float, default=1.0,
                     help="orthosupersymmetry mixing in (0, sqrt(2)]")
    sub.add_argument("--r", type=float, default=None,
                     help="family-2 spectrum constant (default: equal spacing)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycosc",
        description="Cyclic-group extended oscillator algebras: spectra, "
        "supersymmetry-variant charges, and relation checks on truncated "
        "Fock representations.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("spectrum", help="analytic spectrum and degeneracy pattern")
    _add_params_flags(sp)
    _add_common_flags(sp, "tol", "nmax", "format", "output")
    sp.set_defaults(func=cmd_spectrum, tol=_CLUSTER_TOL)

    vf = subs.add_parser("verify", help="run one relation-check suite")
    vf.add_argument("--suite", choices=SUITES, required=True)
    _add_params_flags(vf)
    _add_common_flags(vf, "dim", "tol", "format", "output")
    _add_variant_flags(vf)
    vf.set_defaults(func=cmd_verify)

    sw = subs.add_parser("sweep", help="classify spectra over a parameter grid")
    sw.add_argument("--lambda", dest="lam", type=int, required=True, metavar="N")
    sw.add_argument("--grid", type=str, required=True, metavar="a0=lo:hi:step[,a1=...]")
    _add_common_flags(sw, "nmax", "tol", "output")
    sw.set_defaults(func=cmd_sweep, nmax=60, tol=_CLUSTER_TOL)

    hi = subs.add_parser("hierarchy", help="partner Hamiltonian spectra per sector")
    _add_params_flags(hi)
    _add_common_flags(hi, "dim", "nmax", "format", "output")
    hi.set_defaults(func=cmd_hierarchy)

    va = subs.add_parser("variant", help="build one charge/Hamiltonian solution as JSON")
    va.add_argument("--kind", choices=[k for k, (_, v) in SUITES.items() if v], required=True)
    _add_params_flags(va)
    _add_common_flags(va, "dim", "tol", "nmax", "output")
    _add_variant_flags(va)
    va.set_defaults(func=cmd_variant)

    du = subs.add_parser("dump", help="emit the truncated representation matrices")
    _add_params_flags(du)
    _add_common_flags(du, "dim", "output")
    du.set_defaults(func=cmd_dump)
    return parser


# A value token with a leading minus, which argparse would take for a flag.
_NEGATIVE_VALUE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _glue_values(argv: list[str]) -> list[str]:
    """Join `--alpha -2,0` into `--alpha=-2,0` (any flag) so leading minus signs parse."""
    out = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _NEGATIVE_VALUE.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(_glue_values(raw))
    # Only the subcommands that read a flag have it.
    if hasattr(args, "nmax") and args.nmax < 0:
        parser.error(f"argument --nmax: must be >= 0, got {args.nmax}")
    if hasattr(args, "tol") and not (math.isfinite(args.tol) and args.tol > 0.0):
        parser.error(f"argument --tol: must be finite and > 0, got {args.tol}")
    for flag in ("c", "eta", "r", "xi", "phi"):
        value = getattr(args, flag, None)
        if value is not None and not math.isfinite(value):
            parser.error(f"argument --{flag}: must be finite, got {value}")
    try:
        # Parameters first, then sizes, which may depend on their lam: both before any build.
        if hasattr(args, "params_file"):
            args.params = _resolve_params(args)
        _require_sizes(args)
        return args.func(args)
    except InvalidParamsError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        flag = f"argument --{exc.name}: " if exc.name else ""
        print(f"error: {flag}{exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory; lower --dim or --nmax", file=sys.stderr)
        return 2
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        print(f"error: {args.command} needs numpy, which is not installed", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
