"""Every result file of a small dataset, compared byte for byte with stored copies.

The dataset is the US-Spain-Cuba triangle under names that need CSV quoting.
``python tests/test_golden.py`` rewrites the stored copies in ``tests/golden``;
do that only for an intended change of the output format.
"""

from pathlib import Path

import pytest

from tradenet import build_network, save_countries, save_flows
from tradenet.cli import main
from tradenet.engine import MethodSpec

from conftest import QUOTED_NAME_COUNTRIES, TRIANGLE_FLOWS

GOLDEN = Path(__file__).parent / "golden"


def write_results(directory: Path, extra_flows: str = "") -> None:
    """The dataset files, ``extra_flows`` appended to the flows file, then every command's files."""
    countries, flows = directory / "countries.csv", directory / "flows.csv"
    network = build_network(QUOTED_NAME_COUNTRIES, TRIANGLE_FLOWS)
    save_countries(network.countries, countries)
    save_flows(network.flows, flows)
    with open(flows, "a", newline="", encoding="utf-8") as handle:
        handle.write(extra_flows)
    for weight in ("trade", "offer"):
        dataset = ["--countries", str(countries), "--flows", str(flows), "--out", str(directory),
                   "--weight", weight]
        for method in MethodSpec.METHODS:
            for command in (["matrix"], ["rank"], ["rank", "--format", "json"], ["plane"]):
                assert main([*command, *dataset, "--method", method]) == 0
        assert main(["export-dot", *dataset]) == 0


def test_result_files_match_golden_bytes(tmp_path):
    write_results(tmp_path)
    names = sorted(path.name for path in tmp_path.iterdir())
    assert names == sorted(path.name for path in GOLDEN.iterdir())
    changed = [name for name in names if (tmp_path / name).read_bytes() != (GOLDEN / name).read_bytes()]
    assert changed == []


@pytest.mark.parametrize("amounts", ["0,0", "-0,-0", "0,-0"])
def test_zero_trade_row_changes_no_result_file(tmp_path, amounts):
    # USA -> CUB is the one pair the triangle does not list; a -0 share kept
    # in a matrix would print as -0
    write_results(tmp_path, f"USA,CUB,{amounts}\n")
    changed = [path.name for path in GOLDEN.iterdir() if path.name != "flows.csv"
               and (tmp_path / path.name).read_bytes() != path.read_bytes()]
    assert changed == []


if __name__ == "__main__":
    for path in GOLDEN.glob("*"):
        path.unlink()
    write_results(GOLDEN)
