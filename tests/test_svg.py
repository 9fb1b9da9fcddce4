import json
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


# What each command's child process must not load, besides xml.sax and
# urllib.request: every handler imports only the modules its command runs.
_CHILD_SKIPS = {
    "--version": {"numpy", "subscale.jsondoc"},
    "--help": {"numpy", "subscale.jsondoc"},
    "density": {f"subscale.{m}"
                for m in ("fit", "alloc", "synth", "laws", "runs", "svg", "jsondoc")},
    "select": {f"subscale.{m}"
               for m in ("fit", "alloc", "synth", "laws", "runs", "svg", "jsondoc")},
    "ingest": {"subscale.fit", "subscale.alloc", "subscale.density", "subscale.jsondoc"},
    "alloc": {"subscale.fit", "subscale.runs"},
    "fit": set(),
}

_CHILD = """
import json, sys
from subscale import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""


def test_cli_import_skips_xml_sax_and_urllib(tmp_path):
    # xml.sax.saxutils imports urllib.request, http.client, email and ssl
    from subscale import density, laws, runs, synth

    emb = tmp_path / "vectors.emb"
    density.save_embeddings(emb, synth.gen_blobs(synth.BlobSpec(
        k=2, dim=3, seed=1,
        per_cluster=(synth.BlobCluster(20, (0.0, 0.0, 0.0), 0.5),
                     synth.BlobCluster(20, (5.0, 5.0, 5.0), 0.5)),
    ))[0])
    runs_csv = tmp_path / "runs.csv"
    runs.write_csv(synth.gen_curves(synth.CurveSpec(
        law=laws.PowerLawParams(lam=3.0, alpha=0.3),
        model_sizes=(10**7,),
        token_checkpoints=(tuple(int(2e8 * 1.5**i) for i in range(16)),),
    )), runs_csv)
    law = tmp_path / "law.json"
    law.write_text(json.dumps(laws.params_to_dict(
        laws.ChinchillaParams(1.7, 400.0, 0.34, 410.0, 0.28)
    )))
    commands = [
        ["--version"],
        ["--help"],
        ["density", str(emb), "--k", "2"],
        ["select", str(emb), "--k", "2", "--keep-fraction", "0.5"],
        ["ingest", str(runs_csv)],
        ["alloc", "--law", str(law), "--budget", "1e21", "--sweep"],
        ["fit", str(runs_csv), "--family", "power"],
    ]
    for i, argv in enumerate(commands):
        if not argv[0].startswith("-"):
            argv = argv + ["-o", str(tmp_path / f"out{i}")]
        out = subprocess.run(
            [sys.executable, "-c", _CHILD, *argv], capture_output=True, text=True, check=True
        )
        code, modules = json.loads(out.stdout.splitlines()[-1])
        assert code == 0, (argv, out.stderr)
        skips = {"xml.sax", "urllib.request"} | _CHILD_SKIPS[argv[0]]
        assert sorted(skips & set(modules)) == [], argv
