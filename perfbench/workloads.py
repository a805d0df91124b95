"""How each workload executes a request and checks its output.

CLI workloads call ``coverslide.cli.main`` in this process with stdout
captured; ``move-batch`` calls the library API on one cover built at set-up.
Checks run outside the timed region and rebuild what they verify from the
output alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass

import coverslide
from coverslide import cli

from inputs import BATCH_COVER, GROUP_ORDER, Request


@dataclass
class Outcome:
    """What one request produced."""

    status: int  # CLI exit code; 0 for a library call that returned
    output: str  # stdout, or the certificate JSON for the library API
    error: str = ""
    verified: bool | None = None  # the caller's own verify_certificate on move-batch
    cert: object = None

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.output.encode()).hexdigest()


def _default_cover(group: str, n: int):
    """The cover ``move --group <group> --n <n>`` uses, and its basis."""
    G = coverslide.builtin_group_from_string(group)
    Y = coverslide.make_cover(G, coverslide.standard_images(G, n))
    return Y, coverslide.cycle_basis(Y)


class CliWorkload:
    """``coverslide move`` or ``verify-cw`` through ``cli.main``."""

    def __init__(self) -> None:
        self._covers: dict = {}  # (group, n) -> (Y, B) for the checks

    def setup(self) -> None:
        pass

    def execute(self, req: Request) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(list(req.argv))
        except SystemExit as exc:  # argparse rejected the argv
            status = exc.code if isinstance(exc.code, int) else 2
        return Outcome(status=status, output=out.getvalue(), error=err.getvalue())

    def check(self, req: Request, outcome: Outcome) -> str | None:
        """None if the output is correct, else the reason it is not."""
        if outcome.status != 0:
            return f"exit {outcome.status}: {outcome.error.strip()[:200]}"
        data = json.loads(outcome.output)
        if req.argv[0] == "verify-cw":
            return check_verify_cw(req, data)
        return self._check_move(req, data)

    def _check_move(self, req: Request, data: dict) -> str | None:
        if data.get("verified") is not True:
            return "verified is not true"
        key = (req.group, req.n)
        if key not in self._covers:
            self._covers[key] = _default_cover(*key)
        Y, B = self._covers[key]
        cover = data["cover"]
        expected = {"group_order": Y.group.order, "n": Y.n, "images": list(Y.images)}
        if cover != expected:
            return f"certificate is for the cover {cover}, not {expected}"
        cert = certificate_from_json(data)
        check = coverslide.verify_certificate(Y, B, list(req.vector), cert)
        return None if check.ok else f"re-check failed: {check.failures}"


def check_verify_cw(req: Request, data: dict) -> str | None:
    """Verdict true, and isotypic dims n for the trivial character and
    n - 1 for every other one."""
    if data.get("verdict") is not True:
        return "verdict is not true"
    iso = data.get("isotypic")
    if iso is None:
        return "no isotypic decomposition"
    chars, dims = iso["characters"], iso["dims"]
    if len(chars) != GROUP_ORDER[req.group] or len(dims) != len(chars):
        return f"{len(chars)} characters and {len(dims)} dims for {req.group}"
    if any(x != 1 for x in chars[0]):
        return "the first character is not the trivial one"
    expected = [req.n] + [req.n - 1] * (len(chars) - 1)
    return None if dims == expected else f"isotypic dims {dims} != {expected}"


def certificate_from_json(data: dict) -> coverslide.MoveCertificate:
    parse = coverslide.linalg.parse_rational
    return coverslide.MoveCertificate(
        petal=data["petal"],
        pairing_edge=tuple(data["pairing_edge"]),
        ell=coverslide.Word.from_string(data["ell"]),
        ell_class=[parse(x) for x in data["ell_class"]],
        orbit_rank_value=data["orbit_rank"],
        increment=[parse(x) for x in data["increment"]],
        matrix=[[parse(x) for x in row] for row in data["matrix"]],
        iterates_checked=data["iterates_checked"],
    )


class BatchWorkload:
    """``move_vector`` on one cover with a shared loop cache, followed by the
    caller's own ``verify_certificate``."""

    def setup(self) -> None:
        self.Y, self.B = _default_cover(*BATCH_COVER)
        self.loop_cache: dict = {}

    def execute(self, req: Request) -> Outcome:
        v = list(req.vector)
        cert = coverslide.move_vector(self.Y, self.B, v, loop_cache=self.loop_cache)
        ok = coverslide.verify_certificate(self.Y, self.B, v, cert).ok
        return Outcome(status=0, output="", verified=ok, cert=cert)

    def check(self, req: Request, outcome: Outcome) -> str | None:
        # the certificate JSON stands in for stdout in the output hash
        payload = coverslide.certificate_to_json(outcome.cert, self.Y)
        outcome.output = json.dumps(payload, indent=2, sort_keys=True)
        return None if outcome.verified else "verify_certificate(...).ok is false"


def make(workload: str):
    return BatchWorkload() if workload == "move-batch" else CliWorkload()
