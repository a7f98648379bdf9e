"""Command-line surface: parse and normalize expressions, run the
verification, spectrum, classification, and equivalence tasks from JSON
configs, emit worked-example configs, and check the line model.

Reports are deterministic: the same config produces byte-identical JSON
(the random elements of the representation check and the wavepackets of
the line model come from the config's seed or --seed).  Every
report carries the tool version and a hash of the effective config.  Exit
codes: 0 all checks passed, 1 a check failed, 2 usage or config errors.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from typing import TYPE_CHECKING

from . import __version__
from .catalog import CATALOG_KINDS

if TYPE_CHECKING:
    from .extensions import ExtensionTriple

# Each command imports the modules it needs when it runs: numpy and the
# numeric modules cost most of a cold start, normal-form needs neither, and
# spectrum and schrodinger need no algebra.


class ConfigError(ValueError):
    """Bad config content; the message carries a JSON-pointer-style path."""


def _config_hash(config) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def default_tol(task_default: float) -> float:
    raw = os.environ.get("QHEIS_TOL")
    if raw is None:
        return task_default
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"QHEIS_TOL: not a number: {raw!r}")
    if not 0 < value < math.inf:
        raise ConfigError(
            f"QHEIS_TOL: must be positive and finite, got {raw!r}")
    return value


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as err:
        raise ConfigError(f"{path}: {err.strerror or err}")
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ConfigError(f"{path}: invalid JSON: {err}")
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: /: expected an object")
    return data


def triple_from_config(config: dict) -> ExtensionTriple:
    from .extensions import BoundaryMap, ExtensionTriple
    from .lattice import AtomFamily, Window, check_window

    for key in ("family", "window", "map"):
        if key not in config:
            raise ConfigError(f"/{key}: missing")
        if not isinstance(config[key], dict):
            raise ConfigError(f"/{key}: expected an object")
    try:
        family = AtomFamily.from_json(config["family"])
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"/family: {err}")
    try:
        window = Window.from_json(config["window"])
        check_window(family, window)
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"/window: {err}")
    try:
        bmap = BoundaryMap.from_json(config["map"], family)
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"/map: {err}")
    try:
        # the map was built for this family, so only the window can fail
        return ExtensionTriple(family, window, bmap)
    except ValueError as err:
        raise ConfigError(f"/window: {err}")


def config_tol(config: dict, task_default: float) -> float:
    if "tol" in config:
        tol = config["tol"]
        if (isinstance(tol, bool) or not isinstance(tol, (int, float))
                or not 0 < tol < math.inf):
            raise ConfigError(
                f"/tol: expected a positive finite number, got {tol!r}")
        return float(tol)
    return default_tol(task_default)


def config_seed(config: dict, override) -> int:
    if override is not None:
        return int(override)
    seed = config.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"/seed: expected an integer, got {seed!r}")
    return seed


def build_report(config, status: str, payload: dict) -> dict:
    report = {"version": __version__, "config_hash": _config_hash(config),
              "status": status}
    report.update(payload)
    return report


def _text_lines(report: dict, indent: str = "") -> list[str]:
    lines = []
    for key in sorted(report):
        value = report[key]
        if key == "checks" and isinstance(value, list):
            for check in value:
                verdict = "pass" if check.get("passed") else "FAIL"
                lines.append(f"{indent}  [{verdict}] {check['name']}: "
                             f"{check['value']:.3e} (bound {check['bound']:g},"
                             f" {check.get('kind', 'max')})")
        elif isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.extend(_text_lines(value, indent + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{indent}{key}: [{len(value)} entries]")
        else:
            lines.append(f"{indent}{key}: {value}")
    return lines


def _strict_json(value):
    """``value`` with every non-finite float replaced by None: JSON has no
    Infinity or NaN."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _strict_json(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_strict_json(item) for item in value]
    return value


def emit_report(report: dict, fmt: str, stream=None) -> None:
    stream = stream or sys.stdout
    if fmt == "json":
        stream.write(json.dumps(_strict_json(report), sort_keys=True,
                                indent=2) + "\n")
        return
    head = (f"qheis {report['version']}  "
            f"config {report['config_hash'][:12]}  "
            f"status {report['status']}")
    body = {k: v for k, v in report.items()
            if k not in ("version", "config_hash", "status")}
    stream.write(head + "\n" + "\n".join(_text_lines(body)) + "\n")


def cmd_normal_form(args) -> int:
    from .algebra import check_printable
    from .parsing import parse_to_element

    element = parse_to_element(args.expression)
    check_printable(element)
    terms = [{"monomial": str(mono), "coefficient": str(coeff)}
             for mono, coeff in element.items()]
    config = {"expression": args.expression}
    report = build_report(config, "pass", {
        "task": "normal-form",
        "input": args.expression,
        "normal_form": str(element),
        "n_terms": len(terms),
        "terms": terms,
    })
    if args.format == "text":
        print(str(element))
        return 0
    emit_report(report, args.format)
    return 0


def cmd_verify(args) -> int:
    from .classify import characterization_report, verify_representation
    from .extensions import verify_extension

    config = load_config(args.config)
    triple = triple_from_config(config)
    tol = config_tol(config, 1e-12)
    seed = config_seed(config, args.seed)

    characterization = characterization_report(triple, tol=tol)
    extension = verify_extension(triple, tol=tol)
    representation = verify_representation(triple.family, seed=seed,
                                           tol=max(tol, 1e-10))
    passed = (characterization.passed and extension.passed
              and representation.passed)
    report = build_report(config, "pass" if passed else "fail", {
        "task": "verify",
        "tol": tol,
        "characterization": characterization.to_json(),
        "extension": extension.to_json(),
        "representation": representation.to_json(),
    })
    emit_report(report, args.format)
    return 0 if passed else 1


def cmd_spectrum(args) -> int:
    from .extensions import assemble

    config = load_config(args.config)
    triple = triple_from_config(config)
    tol = config_tol(config, 1e-12)
    model = assemble(triple)
    eigenvalues = [float(v) for v in model.spectrum()]
    residual = model.hermiticity_residual()
    passed = residual <= tol
    report = build_report(config, "pass" if passed else "fail", {
        "task": "spectrum",
        "tol": tol,
        "dim": model.dim,
        "n_sites": len(model.site_label_indices()),
        "hermiticity_residual": residual,
        "eigenvalues": eigenvalues,
    })
    emit_report(report, args.format)
    return 0 if passed else 1


def cmd_classify(args) -> int:
    from .classify import irreducibility_report

    config = load_config(args.config)
    result = irreducibility_report(triple_from_config(config).bmap)
    report = build_report(config, "pass", {
        "task": "classify",
        "verdict": "irreducible" if result.irreducible else "reducible",
        **result.to_json(),
    })
    emit_report(report, args.format)
    return 0


def cmd_equiv(args) -> int:
    from .classify import unitary_equivalent

    config_a = load_config(args.config_a)
    config_b = load_config(args.config_b)
    triple_a = triple_from_config(config_a)
    triple_b = triple_from_config(config_b)
    tol = max(config_tol(config_a, 1e-10), config_tol(config_b, 1e-10))
    result = unitary_equivalent(triple_a.bmap, triple_b.bmap, tol=tol)
    decided = result.verdict in ("equivalent", "inequivalent")
    config = {"a": config_a, "b": config_b}
    report = build_report(config, "pass" if decided else "fail", {
        "task": "equiv",
        "tol": tol,
        **result.to_json(),
    })
    emit_report(report, args.format)
    return 0 if decided else 1


def cmd_example(args) -> int:
    from .classify import build_catalog_triple

    params = {}
    if args.q is not None:
        if not 0 < args.q < 1:
            raise ConfigError(f"--q: must lie in (0, 1), got {args.q}")
        params["q"] = args.q
    triple = build_catalog_triple(args.kind, params)
    name, blurb = CATALOG_KINDS[args.kind]
    config = {
        "kind": args.kind,
        "name": name,
        "description": blurb,
        "tol": 1e-12,
        "seed": 7,
        **triple.to_json(),
    }
    text = json.dumps(config, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_schrodinger(args) -> int:
    from .schrodinger import SchrodingerParams, verify_schrodinger

    if not 0 < args.q < 1:
        raise ConfigError(f"--q: must lie in (0, 1), got {args.q}")
    tol = default_tol(1e-10)
    params = SchrodingerParams.from_q(args.q)
    result = verify_schrodinger(params, n_samples=args.samples,
                                seed=args.seed or 0, tol=tol)
    config = {"q": args.q, "samples": args.samples, "seed": args.seed or 0,
              "tol": tol}
    report = build_report(config, "pass" if result.passed else "fail", {
        "task": "schrodinger",
        **result.to_json(),
    })
    emit_report(report, args.format)
    return 0 if result.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qheis",
        description="q-deformed Heisenberg algebra toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "text"), default="json",
                       help="report format (default json)")

    p = sub.add_parser("normal-form",
                       help="reduce an expression to its normal form")
    p.add_argument("expression")
    add_format(p)
    p.set_defaults(handler=cmd_normal_form)

    p = sub.add_parser("verify",
                       help="run the verification suites on a config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    add_format(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("spectrum",
                       help="eigenvalues of the assembled model")
    p.add_argument("--config", required=True)
    add_format(p)
    p.set_defaults(handler=cmd_spectrum)

    p = sub.add_parser("classify",
                       help="commutant dimension and irreducibility")
    p.add_argument("--config", required=True)
    add_format(p)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("equiv",
                       help="decide unitary equivalence of two configs")
    p.add_argument("--config-a", required=True)
    p.add_argument("--config-b", required=True)
    add_format(p)
    p.set_defaults(handler=cmd_equiv)

    p = sub.add_parser("example",
                       help="emit a worked-example config (kinds 1-5)")
    p.add_argument("--kind", type=int, required=True,
                   choices=sorted(CATALOG_KINDS))
    p.add_argument("--out", default=None,
                   help="output path (default: stdout)")
    p.add_argument("--q", type=float, default=None,
                   help="override the deformation parameter")
    p.set_defaults(handler=cmd_example)

    p = sub.add_parser("schrodinger",
                       help="verify the wavepacket model on the line")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=None)
    add_format(p)
    p.set_defaults(handler=cmd_schrodinger)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as err:
        # ParseError and ConfigError included
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
