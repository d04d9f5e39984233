"""Parity: every report's bits are those recorded in `report_digest.txt`."""

import contextlib
import importlib.util
import io
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "report_digest.txt"


def _digest_lines() -> list[str]:
    """The lines `tools/report_digest.py` prints, run in this process."""
    spec = importlib.util.spec_from_file_location(
        "report_digest", ROOT / "tools" / "report_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert tool.main() == 0
    return out.getvalue().splitlines()


def _by_run(lines: list[str]) -> dict[str, str]:
    """Each line keyed by its run, everything before the final hash."""
    return {line.rsplit(None, 1)[0]: line for line in lines}


def test_every_report_digest_matches_the_recorded_one():
    got, want = _by_run(_digest_lines()), _by_run(
        GOLDEN.read_text().splitlines())
    differ = ["recorded %r, now %r" % (want.get(run), got.get(run))
              for run in sorted(set(got) | set(want))
              if got.get(run) != want.get(run)]
    assert not differ, (
        "%d report digest line(s) differ from tests/report_digest.txt:\n%s\n"
        "A change that alters a report's bits regenerates the file with "
        "`python tools/report_digest.py > tests/report_digest.txt` and says "
        "why in CHANGES.md. The last bits of eigenvectors in the pddp and "
        "cpca lines come from the installed LAPACK, so those lines can differ "
        "on another machine." % (len(differ), "\n".join(differ)))
