"""Command-line harness around the library's main capabilities.

Subcommands: ``optimize`` (product-state maximization), ``oracle``
(independent sampled maximization), ``parrep`` (parallel-repetition
certificate), ``bellqma`` (protocol Monte Carlo), ``encode`` (classical
state descriptions). Results are written as JSON (or flat CSV) to stdout
or ``--out``; with ``--no-meta`` the output depends only on the inputs
and seed, byte for byte.

Exit codes: 0 success, 2 malformed input, 3 capacity exceeded,
4 prover-count mismatch, 5 acceptance-table overflow.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .bellqma import (
    TableCapacityError,
    alternating_message,
    completeness_error_bound,
    derive_params,
    estimate_acceptance,
    honest_message,
    message_from_distributions,
    protocol_from_dict,
    soundness_bound,
)
from .encoding import (
    apply_plan,
    decode_state,
    default_precision,
    description_error_bound,
    description_to_hex,
    encode_state,
    plan_to_dict,
    preparation_plan,
)
from .linalg import DIM_CAP, CapacityError, operator_from_dict, state_from_dict
from .optimize import brute_force_max, seesaw_max
from .repetition import (
    PartyCountError,
    pair_separable,
    verify_perfect_repetition,
)
from .separable import densify, separable_from_dict

EXIT_PARSE = 2
EXIT_CAPACITY = 3
EXIT_PARTY = 4
EXIT_TABLE = 5

MAX_BITS = 1023  # largest encode --bits


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument(
        "--max-dim", type=int, default=DIM_CAP, help=f"dense dimension cap, 1 to {DIM_CAP}"
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument(
        "--no-meta",
        action="store_true",
        help="omit the meta block; output becomes byte-deterministic",
    )


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:
            raise ValueError(f"{path}: JSON nested too deeply") from exc


def _flatten(doc, prefix=""):
    rows = []
    if isinstance(doc, dict):
        for key in sorted(doc):
            rows.extend(_flatten(doc[key], f"{prefix}{key}."))
    elif isinstance(doc, (list, tuple)):
        for idx, item in enumerate(doc):
            rows.extend(_flatten(item, f"{prefix}{idx}."))
    else:
        rows.append((prefix[:-1], doc))
    return rows


def _emit(doc: dict, args) -> None:
    if not args.no_meta:
        doc = dict(doc)
        doc["meta"] = {
            "seed": args.seed,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "version": __version__,
        }
    if args.format == "json":
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("key", "value"))
        for key, value in _flatten(doc):
            writer.writerow((key, value))
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_dim(dim: int, max_dim: int) -> None:
    if dim > max_dim:
        raise CapacityError(f"operator dimension {dim} exceeds --max-dim {max_dim}")


# -- subcommands --------------------------------------------------------------


def cmd_optimize(args) -> dict:
    c = operator_from_dict(_load_json(args.operator))
    _check_dim(c.dim, args.max_dim)
    result = seesaw_max(c, restarts=args.restarts, rng=args.seed)
    doc = {"command": "optimize", "result": result.to_dict()}
    if args.oracle_samples is not None:
        doc["oracle_value"] = brute_force_max(
            c, samples=args.oracle_samples, rng=args.seed
        )
        doc["oracle_gap"] = abs(doc["oracle_value"] - result.value)
    return doc


def cmd_oracle(args) -> dict:
    c = operator_from_dict(_load_json(args.operator))
    _check_dim(c.dim, args.max_dim)
    value = brute_force_max(c, samples=args.samples, rng=args.seed)
    return {"command": "oracle", "value": value, "samples": args.samples}


def cmd_parrep(args) -> dict:
    if args.repeat < 1:
        raise ValueError(f"--repeat must be >= 1, got {args.repeat}")
    if not 0.0 <= args.tol < math.inf:
        raise ValueError(f"--tol must be a finite number >= 0, got {args.tol}")
    c1 = separable_from_dict(_load_json(args.instance))
    c2 = separable_from_dict(_load_json(args.second)) if args.second else c1
    if args.repeat > 1 and args.second:
        raise ValueError(
            f"--repeat {args.repeat} pairs the first instance with itself; it takes no second instance"
        )
    _check_dim(c1.shape.total * c2.shape.total, args.max_dim)
    if args.repeat > 1:
        base = c1
        fold = c1
        for _ in range(args.repeat - 1):
            fold = pair_separable(fold, base)
            _check_dim(fold.shape.total, args.max_dim)
        r1 = seesaw_max(densify(base), rng=np.random.default_rng(args.seed))
        rk = seesaw_max(densify(fold), rng=np.random.default_rng(args.seed + 1))
        expected = r1.value ** args.repeat
        verdict = "perfect" if abs(rk.value - expected) <= args.tol else "inconclusive"
        return {
            "command": "parrep",
            "repeat": args.repeat,
            "v_single": r1.value,
            "v_repeated": rk.value,
            "v_single_pow_k": expected,
            "verdict": verdict,
        }
    report = verify_perfect_repetition(
        c1, c2, tol=args.tol, rng=np.random.default_rng(args.seed)
    )
    return {"command": "parrep", **report.to_dict()}


def cmd_bellqma(args) -> dict:
    protocol, proofs = protocol_from_dict(_load_json(args.protocol))
    overrides = {
        key: getattr(args, key)
        for key in ("p", "k", "q", "alpha")
        if getattr(args, key) is not None
    }
    params = dataclasses.replace(derive_params(protocol.n, protocol.m, protocol.r), **overrides)

    if args.merlin == "honest":
        message = honest_message(protocol, proofs, params)
    elif args.merlin == "lying-x":
        # Claim full weight on outcome 0 regardless of the actual proofs.
        concentrated = [
            [1.0] + [0.0] * (protocol.r - 1) for _ in range(protocol.m)
        ]
        message = message_from_distributions(concentrated, proofs, params)
    else:  # mixed-y
        message = alternating_message(protocol, proofs, params)

    est = estimate_acceptance(
        protocol,
        message,
        params,
        args.trials,
        rng=np.random.default_rng(args.seed),
        collect=args.trial_csv is not None,
    )
    if args.trial_csv is not None:
        with open(args.trial_csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("trial", "accepted", "rejection_stage", "j", "i", "n_ji"))
            for idx, out in enumerate(est["outcomes"]):
                j, i = out.step4_pick if out.step4_pick else ("", "")
                writer.writerow(
                    (
                        idx,
                        int(out.accepted),
                        out.rejection_stage or "",
                        j,
                        i,
                        out.step4_count if out.step4_count is not None else "",
                    )
                )
    return {
        "command": "bellqma",
        "merlin": args.merlin,
        "params": {"p": params.p, "k": params.k, "q": params.q, "alpha": params.alpha},
        "estimate": {
            "mean": est["mean"],
            "ci95_low": est["ci95"][0],
            "ci95_high": est["ci95"][1],
            "accepted": est["accepted"],
            "trials": est["trials"],
        },
        "bounds": {
            "completeness_error": completeness_error_bound(params),
            "soundness": soundness_bound(protocol.m, protocol.r),
        },
    }


def cmd_encode(args) -> dict:
    psi = state_from_dict(_load_json(args.state))
    _check_dim(psi.shape.total, args.max_dim)
    bits = default_precision(psi.shape.total) if args.bits is None else args.bits
    if bits > MAX_BITS:
        # A bound on the register the command prints, not on decoding:
        # decode_state is correct at any precision.
        if args.bits is None:
            raise ValueError(
                f"default precision 20 N = {bits} exceeds the --bits limit of {MAX_BITS}; pass --bits"
            )
        raise ValueError(f"--bits {bits} exceeds the --bits limit of {MAX_BITS}")
    desc = encode_state(psi, bits)
    decoded = decode_state(desc)
    doc = {
        "command": "encode",
        "dimension": desc.dimension,
        "precision_bits": desc.precision_bits,
        "register_hex": description_to_hex(desc),
        "error_bound": description_error_bound(desc),
        # encoding_error(psi, desc), on the decode made once above
        "measured_error": float(np.linalg.norm(psi.amplitudes - decoded.amplitudes)),
    }
    if args.plan:
        plan = preparation_plan(decoded)
        doc["plan"] = plan_to_dict(plan)
        doc["plan_error"] = float(np.linalg.norm(apply_plan(plan) - decoded.amplitudes))
    return doc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiprover",
        description="Product-state optimization, repetition certificates, "
        "protocol Monte Carlo, and state encodings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="maximize an operator over product states")
    p_opt.add_argument("operator", help="Hermitian operator JSON document")
    p_opt.add_argument("--restarts", type=int, default=32)
    p_opt.add_argument(
        "--oracle-samples",
        type=int,
        default=None,
        help="also run the sampled oracle and report the gap",
    )
    _add_common(p_opt)

    p_orc = sub.add_parser("oracle", help="sampled product-state maximization")
    p_orc.add_argument("operator")
    p_orc.add_argument("--samples", type=int, default=100_000)
    _add_common(p_orc)

    p_rep = sub.add_parser("parrep", help="parallel-repetition certificate")
    p_rep.add_argument("instance", help="separable operator JSON document")
    p_rep.add_argument("second", nargs="?", default=None)
    p_rep.add_argument(
        "--repeat", type=int, default=1, help="k-fold self pairing; k > 1 takes no second instance"
    )
    p_rep.add_argument("--tol", type=float, default=1e-3, help="verdict tolerance")
    _add_common(p_rep)

    p_bell = sub.add_parser("bellqma", help="protocol acceptance Monte Carlo")
    p_bell.add_argument("protocol", help="protocol JSON document")
    p_bell.add_argument(
        "--merlin", choices=("honest", "lying-x", "mixed-y"), default="honest"
    )
    p_bell.add_argument("--p", type=int, default=None)
    p_bell.add_argument("--k", type=int, default=None)
    p_bell.add_argument("--q", type=int, default=None)
    p_bell.add_argument("--alpha", type=int, default=None)
    p_bell.add_argument("--trials", type=int, default=1000, help="Monte Carlo trials")
    p_bell.add_argument("--trial-csv", default=None, help="write per-trial rows here")
    _add_common(p_bell)

    p_enc = sub.add_parser("encode", help="classical description of a pure state")
    p_enc.add_argument("state", help="state JSON document")
    p_enc.add_argument(
        "--bits", type=int, default=None, help=f"fractional bits, at most {MAX_BITS} (default 20 N)"
    )
    p_enc.add_argument("--plan", action="store_true", help="include a preparation plan")
    _add_common(p_enc)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first main() call rather than at import, and reused.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a bad command line and 0 after --help
        return exc.code
    # The handler is looked up by name on every call, so a rebinding of
    # cmd_<command> after the parser was built is still seen.
    handler = globals()[f"cmd_{args.command}"]
    try:
        if not 1 <= args.max_dim <= DIM_CAP:
            # the library's own cap is DIM_CAP: a larger --max-dim would not apply
            raise ValueError(f"--max-dim must be between 1 and {DIM_CAP}, got {args.max_dim}")
        doc = handler(args)
    except TableCapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TABLE
    except PartyCountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARTY
    except (CapacityError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (
        ValueError,
        KeyError,
        TypeError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    _emit(doc, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
