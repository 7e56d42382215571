"""Workload inputs, set-up and items for the benchmark.

Every input is drawn from the workload seed with the benchmark's own numpy
Generator, never with ``multiprover.rand`` or ``multiprover.instances``, so
a change to the library's random stream cannot change a workload. The
inputs are plain JSON documents; the library only ever sees them through
its public readers (``operator_from_dict``, ``separable_from_dict``,
``protocol_from_dict``, ``state_from_dict``) and through the CLI.

Each workload has three parts:

* ``generate(seed, root)``: the JSON-ready inputs, with no library call
  (``encode`` also writes them to files for the CLI);
* ``setup(mp, inputs)``: parse the documents and build the messages; this
  is what ``setup_s`` times, together with ``import multiprover``;
* ``item(mp, env, i, check)``: one top-level library call on pool entry
  ``i % POOL``, then its correctness check run inside ``check`` (a context
  manager the tracer uses to time the benchmark's own check code). It
  returns ``(ok, diagnostics)`` and never raises for a wrong result.

``mp`` is a namespace of the library's modules. Items look functions up
on it at call time, so the traced run's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from fractions import Fraction
from functools import reduce
from pathlib import Path

import numpy as np

WORKLOADS = ("repetition", "seesaw_oracle", "protocol", "encode")
OUT_DIR = Path("perfbench") / "out"


def fingerprint(inputs: dict) -> str:
    """SHA-256 of the canonical JSON text of the generated inputs."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- generation helpers (benchmark-side arithmetic only) ----------------------


def _psd(g: np.random.Generator, d: int) -> np.ndarray:
    x = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
    m = x @ x.conj().T
    return (m + m.conj().T) / 2


def _haar_unitary(g: np.random.Generator, d: int) -> np.ndarray:
    z = (g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    ph = np.diag(r) / np.abs(np.diag(r))
    return q * ph


def _op_doc(dims, m: np.ndarray) -> dict:
    m = (m + m.conj().T) / 2
    return {"dims": [int(d) for d in dims], "re": m.real.tolist(), "im": m.imag.tolist()}


def _seed(g: np.random.Generator) -> int:
    return int(g.integers(2 ** 32))


# -- repetition ---------------------------------------------------------------
#
# One verify_perfect_repetition call per item on a generated pair of
# separable instances, drawn like acceptance criterion 3: 1 or 2 parties,
# local dimensions 2-3, 1-3 terms, normalized by spectral norm. Paired
# dimension D runs from 4 to 81. The only workload that pairs instances;
# witness screening does most of its work.
#
# Cost follows the structure (party count, local dimensions, term counts),
# so the structures run in a fixed cycle and only the entries come from the
# seed: every run sees the same mix. The cycle holds the 16 two-party
# dimension choices once each and 10 one-party pairs (38% one-party;
# criterion 3 draws 40%). Sorted by cost the cycle groups by paired
# dimension D: 10 one-party items, then D = 16, 24, 36, 54, 81 with 1, 4, 6,
# 4 and 1 items. With 10 one-party items item_p50_ms lands in the middle of
# the D=24 group and item_p90_ms inside the D=54 group, not on the edge
# between two groups of different cost.

_ONE_PARTY = [((2,), (2,)), ((2,), (3,)), ((3,), (2,)), ((3,), (3,))]
_TWO_PARTY = [((a, b), (c, d)) for a in (2, 3) for b in (2, 3) for c in (2, 3) for d in (2, 3)]
REPETITION_CYCLE = tuple(
    (dims1, dims2, 1 + slot % 3, 1 + (slot // 3) % 3)
    for slot, (dims1, dims2) in enumerate((_ONE_PARTY * 3)[:10] + _TWO_PARTY)
)


class Repetition:
    name = "repetition"
    CYCLE = len(REPETITION_CYCLE)
    POOL = 7 * CYCLE
    RATE = 7.0  # items per second on the seed code; sizes the traced run

    @staticmethod
    def _instance(g: np.random.Generator, dims, n_terms: int) -> dict:
        terms = [[_psd(g, d) / d for d in dims] for _ in range(n_terms)]
        dense = sum(reduce(np.kron, t) for t in terms)
        norm = float(np.linalg.eigvalsh(dense)[-1])
        for t in terms:
            t[0] = t[0] / norm
        return {"dims": list(dims), "terms": [[_op_doc([f.shape[0]], f) for f in t] for t in terms]}

    def generate(self, seed: int, root: Path) -> dict:
        g = np.random.default_rng(seed)
        pool = []
        for idx in range(self.POOL):
            dims1, dims2, terms1, terms2 = REPETITION_CYCLE[idx % self.CYCLE]
            pool.append(
                {
                    "c1": self._instance(g, dims1, terms1),
                    "c2": self._instance(g, dims2, terms2),
                    "seed": _seed(g),
                }
            )
        return {"workload": self.name, "seed": seed, "pool": pool}

    def setup(self, mp, inputs: dict) -> list:
        read = mp.separable.separable_from_dict
        return [(read(e["c1"]), read(e["c2"]), e["seed"]) for e in inputs["pool"]]

    def item(self, mp, env: list, i: int, check) -> tuple[bool, dict]:
        c1, c2, seed = env[i % len(env)]
        rep = mp.repetition.verify_perfect_repetition(c1, c2, rng=seed)
        with check():
            gap = abs(rep.v - rep.v1 * rep.v2)
            ok = rep.verdict == "perfect" and gap <= 1e-3 and rep.witness_min >= -1e-9
        return ok, {"gap": gap, "witness_min": rep.witness_min}


# -- seesaw_oracle ------------------------------------------------------------
#
# seesaw_max(restarts=16) then brute_force_max on one generated operator.
# Four items in five are random PSD operators (criterion 8); the fifth is
# the degenerate canonical operator (|00><00| + |psi+><psi+|)/2 under random
# local unitaries, on which every restart runs to sweep_cap. Sorted by cost
# the items form three groups about 3x apart: 2x2, 2x2x2, degenerate. The
# cycle holds them 1 : 3 : 1, so item_p50_ms sits in the middle of the
# 2x2x2 group and item_p90_ms in the middle of the degenerate one. (Criterion
# 8's even split of 2x2 and 2x2x2 would put p50 on the edge between them.)

SEESAW_CYCLE = ((2, 2), (2, 2, 2), (2, 2, 2), (2, 2, 2), None)  # None: degenerate


class SeesawOracle:
    name = "seesaw_oracle"
    CYCLE = len(SEESAW_CYCLE)
    POOL = 40 * CYCLE
    RATE = 2.7

    @staticmethod
    def _degenerate(g: np.random.Generator) -> np.ndarray:
        e00 = np.zeros(4, dtype=complex)
        e00[0] = 1.0
        bell = np.zeros(4, dtype=complex)
        bell[1] = bell[2] = 1.0 / np.sqrt(2.0)
        c = 0.5 * np.outer(e00, e00.conj()) + 0.5 * np.outer(bell, bell.conj())
        u = np.kron(_haar_unitary(g, 2), _haar_unitary(g, 2))
        return u @ c @ u.conj().T

    def generate(self, seed: int, root: Path) -> dict:
        g = np.random.default_rng(seed)
        pool = []
        for idx in range(self.POOL):
            dims = SEESAW_CYCLE[idx % self.CYCLE]
            degenerate = dims is None
            if degenerate:
                dims = (2, 2)
                mat = self._degenerate(g)
            else:
                mat = _psd(g, int(np.prod(dims)))
                mat = mat / np.linalg.eigvalsh(mat)[-1]
            pool.append(
                {
                    "operator": _op_doc(dims, mat),
                    "degenerate": degenerate,
                    "samples": 20_000 if len(dims) == 2 else 30_000,
                    "seesaw_seed": _seed(g),
                    "oracle_seed": _seed(g),
                }
            )
        return {"workload": self.name, "seed": seed, "pool": pool}

    def setup(self, mp, inputs: dict) -> list:
        read = mp.linalg.operator_from_dict
        return [(read(e["operator"]), e) for e in inputs["pool"]]

    def item(self, mp, env: list, i: int, check) -> tuple[bool, dict]:
        c, e = env[i % len(env)]
        res = mp.optimize.seesaw_max(c, restarts=16, rng=e["seesaw_seed"])
        oracle = mp.optimize.brute_force_max(c, samples=e["samples"], rng=e["oracle_seed"])
        with check():
            gap = abs(res.value - oracle)
            ok = gap <= 1e-4
            diag = {"gap": gap}
            if e["degenerate"]:
                diag["degenerate_error"] = abs(res.value - 0.5)
                ok = ok and diag["degenerate_error"] <= 1e-6
        return ok, diag


# -- protocol -----------------------------------------------------------------
#
# One estimate_acceptance batch per item; three messages take turns:
# honest IID on the generated qutrit protocol (criterion-5 parameters),
# lying-x IID with the criterion-6 claims and parameters, and mixed-y
# explicit copies from alternating_message on data/protocol_m2r2.json with
# k lowered to 40 000, a value the CLI accepts. Trials per batch are
# constants and never adapt to the measured speed. On the seed code they
# give batches of about 85, 135 and 200 ms: each message takes a fifth to a
# half of the timed region, and the three populations are far enough apart
# that item_p50_ms stays inside the middle one (lying-x) and item_p90_ms
# inside the slowest (mixed-y) instead of flipping between two of them.

QUTRIT_PARAMS = {"p": 20, "k": 40_000, "q": 50, "alpha": 120}  # criterion 5
LYING_PARAMS = {"p": 120, "k": 5 * 120 ** 3, "q": 50, "alpha": 120}  # criterion 6
MIXED_K = 40_000
TRIALS = {"honest": 60, "lying": 190, "mixed": 14}
MESSAGES = ("honest", "lying", "mixed")
M2R2_PATH = Path("data") / "protocol_m2r2.json"


class Protocol:
    name = "protocol"
    POOL = 300  # a multiple of CYCLE
    CYCLE = 3
    RATE = 7.0

    def generate(self, seed: int, root: Path) -> dict:
        g = np.random.default_rng(seed)
        m, r = 2, 3
        povms = []
        for _ in range(m):
            u = _haar_unitary(g, r)
            povms.append([_op_doc([r], np.outer(u[:, i], u[:, i].conj())) for i in range(r)])
        proofs = []
        for _ in range(m):
            w = _psd(g, r)
            proofs.append(_op_doc([r], 0.5 * w / np.trace(w).real + 0.5 * np.eye(r) / r))
        qutrit = {
            "n": 1, "m": m, "r": r, "povms": povms,
            "stage2": {"kind": "accept_all"}, "proofs": proofs,
        }
        # Criterion-6 lie: prover 0 moves twice the deviation threshold
        # 1/(10 m r) onto outcome 0; the proofs are maximally mixed.
        third, thresh = 1.0 / 3.0, 1.0 / (10 * m * r)
        lying = {
            "claims": [[third + 2 * thresh, third - thresh, third - thresh], [third] * 3],
            "proof": _op_doc([r], np.eye(r) / r),
        }
        m2r2 = json.loads((root / M2R2_PATH).read_text(encoding="utf-8"))
        batches = [
            {"message": MESSAGES[idx % self.CYCLE], "trials": TRIALS[MESSAGES[idx % self.CYCLE]], "seed": _seed(g)}
            for idx in range(self.POOL)
        ]
        return {
            "workload": self.name, "seed": seed, "qutrit": qutrit, "lying": lying,
            "m2r2": m2r2, "batches": batches,
        }

    def setup(self, mp, inputs: dict) -> dict:
        b = mp.bellqma
        qutrit, proofs = b.protocol_from_dict(inputs["qutrit"])
        honest_params = b.ProtocolParams(**QUTRIT_PARAMS)
        lying_params = b.ProtocolParams(**LYING_PARAMS)
        mixed_proof = mp.linalg.operator_from_dict(inputs["lying"]["proof"])
        m2r2, m2r2_proofs = b.protocol_from_dict(inputs["m2r2"])
        d = b.derive_params(m2r2.n, m2r2.m, m2r2.r)
        mixed_params = b.ProtocolParams(p=d.p, k=MIXED_K, q=d.q, alpha=d.alpha)
        return {
            "honest": (qutrit, b.honest_message(qutrit, proofs, honest_params), honest_params),
            "lying": (
                qutrit,
                b.message_from_distributions(
                    inputs["lying"]["claims"], [mixed_proof] * qutrit.m, lying_params
                ),
                lying_params,
            ),
            "mixed": (m2r2, b.alternating_message(m2r2, m2r2_proofs, mixed_params), mixed_params),
            "batches": inputs["batches"],
        }

    def item(self, mp, env: dict, i: int, check) -> tuple[bool, dict]:
        batch = env["batches"][i % len(env["batches"])]
        protocol, message, params = env[batch["message"]]
        est = mp.bellqma.estimate_acceptance(
            protocol, message, params, batch["trials"], rng=batch["seed"]
        )
        with check():
            mean = est["mean"]
            if batch["message"] == "lying":
                # soundness bound 1 - 1/(40 m^2 r^2) plus the Wilson half-width
                m, r = protocol.m, protocol.r
                ok = mean <= 1.0 - 1.0 / (40.0 * m * m * r * r) + (est["ci95"][1] - mean)
            else:
                ok = mean >= 0.99
        return ok, {f"{batch['message']}_acceptance": mean}


# -- encode -------------------------------------------------------------------
#
# One in-process `multiprover encode STATE --bits F --plan --no-meta` run
# through cli.main per item, on a generated Haar state (dimension 2-64,
# F 4-60, as in criterion 7), then an exact check of its output. Exact
# Python-integer arithmetic, the CLI and the JSON boundary do the work here;
# BLAS does almost none, so a BLAS or threading change should not move it.


class Encode:
    name = "encode"
    POOL = 400
    CYCLE = 1
    RATE = 200.0

    def generate(self, seed: int, root: Path) -> dict:
        g = np.random.default_rng(seed)
        pool = []
        for _ in range(self.POOL):
            n = int(g.integers(2, 65))
            bits = int(g.integers(4, 61))
            v = g.standard_normal(n) + 1j * g.standard_normal(n)
            v = v / np.linalg.norm(v)
            pool.append(
                {"state": {"dims": [n], "re": v.real.tolist(), "im": v.imag.tolist()}, "bits": bits}
            )
        # The CLI reads STATE from a file: one file per pool entry, written
        # here as part of input generation and removed when the run ends.
        files = OUT_DIR / f"encode-{seed}"
        (root / files).mkdir(parents=True, exist_ok=True)
        for idx, e in enumerate(pool):
            (root / files / f"state_{idx}.json").write_text(json.dumps(e["state"]), encoding="utf-8")
        return {"workload": self.name, "seed": seed, "pool": pool, "files": str(files)}

    def setup(self, mp, inputs: dict) -> dict:
        read = mp.linalg.state_from_dict
        return {
            "states": [(read(e["state"]), e["bits"]) for e in inputs["pool"]],
            "paths": [str(Path(inputs["files"]) / f"state_{idx}.json") for idx in range(len(inputs["pool"]))],
        }

    def item(self, mp, env: dict, i: int, check) -> tuple[bool, dict]:
        psi, bits = env["states"][i % len(env["states"])]
        path = env["paths"][i % len(env["paths"])]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = mp.cli.main(["encode", path, "--bits", str(bits), "--plan", "--no-meta"])
        with check():
            if code != 0:
                return False, {"exit_code": code}
            doc = json.loads(out.getvalue())
            enc = mp.encoding
            n = psi.shape.total
            desc = enc.description_from_hex(doc["dimension"], doc["precision_bits"], doc["register_hex"])
            err2 = enc.encoding_error_squared_exact(psi, desc)
            bound = Fraction(n, 1 << (bits + 1))
            plan = enc.plan_from_dict(doc["plan"])
            drift = float(np.linalg.norm(enc.apply_plan(plan) - enc.decode_state(desc).amplitudes))
            ok = (
                doc["dimension"] == n
                and doc["precision_bits"] == bits
                and err2 <= bound * bound
                and drift <= 1e-10
            )
        return ok, {"plan_drift": drift, "error_over_bound": float(err2 / (bound * bound))}


def get(name: str):
    return {w.name: w for w in (Repetition(), SeesawOracle(), Protocol(), Encode())}[name]
