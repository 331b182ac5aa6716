"""Every example script must run cleanly end to end.

The examples are documentation; broken documentation is worse than none.
Each is executed in-process and its output spot-checked for the story it
claims to tell.
"""

import io
import runpy
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

EXPECTATIONS = {
    "quickstart.py": ["Mutual authentication succeeded", "Tickets destroyed"],
    "athena_workstation.py": [
        "DENIED",
        "no amount of IP address forgery",
    ],
    "cross_realm.py": ["jis@ATHENA.MIT.EDU", "unlinked realm"],
    "attacks_defeated.py": [
        "RD_AP_REPEAT",
        "RD_AP_BADD",
        "RD_AP_EXP",
        "impostor caught",
    ],
    "administration.py": [
        "PERMITTED",
        "DENIED",
        "administration requests cannot be serviced",
    ],
    "kerberizing_an_app.py": [
        "nothing stopped the lie",
        "nothing to lie about",
    ],
    "wire_trace.py": ["AS-REQ", "TGS-REP", "sealed"],
    "preauth_hardening.py": [
        "recovered password = 'password'",
        "REFUSED (preauth required)",
    ],
}


def run_example(name: str) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
    return buffer.getvalue()


class TestExamples:
    @pytest.mark.parametrize("name", sorted(EXPECTATIONS))
    def test_example_runs_and_tells_its_story(self, name):
        output = run_example(name)
        for marker in EXPECTATIONS[name]:
            assert marker in output, f"{name} output missing {marker!r}"

    def test_every_example_is_covered(self):
        on_disk = {p.name for p in EXAMPLES_DIR.glob("*.py")}
        assert on_disk == set(EXPECTATIONS), (
            "examples and EXPECTATIONS out of sync"
        )

    def test_main_module_demo(self):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            runpy.run_module("repro", run_name="__main__")
        out = buffer.getvalue()
        assert "AS exchange" in out
        assert "mutual" in out

    def test_obs_clis_report_every_plane_the_same_twice(self):
        """``python -m repro.obs.report`` and ``python -m repro.obs.selfcheck``
        drive one demo world: both exit 0, the report has every section —
        its traces followed by their wire lines — and a second run prints
        byte-identical output."""
        from repro.obs import report, selfcheck

        runs = []
        for _ in range(2):
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                assert report.main([]) == 0
                assert selfcheck.main([]) == 0
            runs.append(buffer.getvalue())
        out = runs[0]
        assert runs[1] == out
        tree = out.index("req-000001  user.session")
        wire = out.index("kerberos  AS-REQ  client=jis@REPORT.REALM")
        assert tree < wire < out.index("(no active span)") < out.index("== audit log")
        assert "rid=req-000001" in out[wire:]
        for section in (
            "== span latency digests ==", "== traces (3 of 3) ==",
            "== audit log (4 events) ==", "== metrics (", "replay_detected", "selfcheck ok: demo realm, every plane",
        ):
            assert section in out, section
