import subprocess
import sys
from xml.sax.saxutils import escape as sax_escape

import pytest

from subscale import svg


@pytest.mark.parametrize(
    "text",
    [
        "",
        "plain label",
        "a & b < c > d",
        "&amp; already escaped &lt;",
        "quotes \" and ' stay",
        "<<&&>> \"'&'\" <tag attr='x'>",
        "loss (N=1e9) & D/N > 20",
    ],
)
def test_escape_matches_saxutils(text):
    assert svg.escape(text) == sax_escape(text)


def test_cli_import_skips_xml_sax_and_urllib():
    # xml.sax.saxutils imports urllib.request, http.client, email and ssl
    code = (
        "import sys, subscale.cli; "
        "print(sorted(m for m in ('xml.sax', 'urllib.request') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
