"""Subcommand behaviour: output contracts, determinism, exit codes."""

import io
import json

import pytest

from planemaps import cli
from planemaps.cli import admissible_types, run, to_dot
from planemaps.bijections import IDENTITIES
from planemaps.counting import Identity, identity_sides, tutte_count
from planemaps.enumerator import enumerate_decorations, enumerate_maps
from planemaps.maps import PlaneMap

from common import digon


def invoke(argv):
    out = io.StringIO()
    status = run(argv, out=out)
    return status, out.getvalue()


class TestCount:
    def test_bipartite(self):
        status, text = invoke(["count", "--type", "4,4"])
        assert status == 0
        assert text == "E=4 V=4 class=bipartite M=36\n"

    def test_quasibipartite(self):
        status, text = invoke(["count", "--type", "3,1"])
        assert status == 0
        assert text == "E=2 V=2 class=quasibipartite M=3\n"

    def test_three_odd_faces(self, capsys):
        status, text = invoke(["count", "--type", "3,3,3"])
        assert status != 0
        assert "more than two odd faces" in capsys.readouterr().err

    def test_junk_type(self):
        with pytest.raises(SystemExit):
            invoke(["count", "--type", "4,x"])

    @pytest.mark.parametrize("text", ["4.7,4", "4,,4", "0,2", ""])
    def test_bad_type_exits_2(self, text, capsys):
        with pytest.raises(SystemExit) as exc:
            invoke(["count", "--type", text])
        assert exc.value.code == 2
        assert "argument --type" in capsys.readouterr().err


class TestEnumerate:
    def test_stream_and_trailing_count(self):
        status, text = invoke(["enumerate", "--type", "2,2"])
        assert status == 0
        lines = text.strip().split("\n")
        assert lines[-1] == "count=2"
        maps = [PlaneMap.from_json(line) for line in lines[:-1]]
        assert len(maps) == 2
        assert {m.degrees for m in maps} == {(2, 2)}

    def test_deterministic(self):
        a = invoke(["enumerate", "--type", "4,2"])
        b = invoke(["enumerate", "--type", "4,2"])
        assert a == b

    def test_above_edge_bound(self, capsys):
        status, text = invoke(["enumerate", "--type", "8,8"])
        assert status == 2
        assert text == ""
        assert capsys.readouterr().err.startswith("error: type (8, 8) has 8 edges")

    def test_code_format(self):
        status, text = invoke(["enumerate", "--type", "4", "--format", "code"])
        lines = text.strip().split("\n")
        assert status == 0 and lines[-1] == "count=2"
        codes = {m.canonical_code() for m in enumerate_maps((4,))}
        assert set(lines[:-1]) == codes


class TestSample:
    def test_deterministic(self):
        argv = ["sample", "--type", "4,4", "--seed", "7", "--count", "5"]
        assert invoke(argv) == invoke(argv)

    def test_draws_parse_and_type(self):
        status, text = invoke(
            ["sample", "--type", "3,3", "--seed", "1", "--count", "4"]
        )
        assert status == 0
        for line in text.strip().split("\n"):
            assert PlaneMap.from_json(line).degrees == (3, 3)

    def test_zero_count(self):
        assert invoke(["sample", "--type", "4,4", "--count", "0"]) == (0, "")

    def test_negative_count(self, capsys):
        with pytest.raises(SystemExit) as exc:
            invoke(["sample", "--type", "4,4", "--count", "-1"])
        assert exc.value.code == 2
        assert "must be at least 0" in capsys.readouterr().err

    def test_seed_changes_stream(self):
        one = invoke(["sample", "--type", "4,4", "--seed", "1", "--count", "20"])
        two = invoke(["sample", "--type", "4,4", "--seed", "2", "--count", "20"])
        assert one != two


class TestVerify:
    def test_identities(self):
        status, text = invoke(["verify-identities", "--max-edges", "3"])
        assert status == 0
        assert "all identity checks passed" in text
        assert "set cardinalities" in text

    def test_roundtrip(self):
        status, text = invoke(["verify-roundtrip", "--max-edges", "2"])
        assert status == 0
        assert "all round trips passed" in text

    def test_props(self):
        status, text = invoke(["verify-props", "--max-edges", "3"])
        assert status == 0
        assert "all direction censuses passed" in text

    @pytest.mark.parametrize(
        "command", ["verify-identities", "verify-roundtrip", "verify-props"]
    )
    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_empty_sweep_rejected(self, command, bound, capsys):
        with pytest.raises(SystemExit) as exc:
            invoke([command, "--max-edges", bound])
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    def test_skewed_census_fails(self, monkeypatch, capsys):
        # a census that miscounts one face at one vertex must not pass
        true_census = cli.direction_census
        calls = []

        def skewed(m, v):
            census = true_census(m, v)
            calls.append(v)
            if len(calls) == 5:
                toward, away, par = census[0]
                census[0] = (toward + 1, away, par)
            return census

        monkeypatch.setattr(cli, "direction_census", skewed)
        status, text = invoke(["verify-props", "--max-edges", "3"])
        assert status == 1
        fails = [ln for ln in text.splitlines() if ln.startswith("FAIL")]
        assert len(fails) == 1
        assert fails[0].startswith("FAIL direction census ")
        assert "all direction censuses passed" not in text
        assert "error: 1 censuses failed" in capsys.readouterr().err

    def test_roundtrip_enumerates_each_type_once(self, monkeypatch):
        # the four families share one enumeration per source and target
        # type; the report stays as it was with one call per family side
        calls = []
        real = cli.enumerate_maps

        def counting(t, **kwargs):
            calls.append(tuple(t))
            return real(t, **kwargs)

        monkeypatch.setattr(cli, "enumerate_maps", counting)
        status, text = invoke(["verify-roundtrip", "--max-edges", "3"])
        assert status == 0
        assert text == "round trips: 32 family sweeps\nall round trips passed\n"
        assert len(calls) == len(set(calls)) == 32

    @pytest.mark.parametrize("ident", list(Identity), ids=lambda i: i.value)
    def test_roundtrip_failure_reported(self, ident, monkeypatch, capsys):
        # an inverse that, undoing a forward step, lands on the next lhs
        # decoration of the right map: the case stays right, so only the
        # key comparison can see that every lhs round trip now fails
        row = IDENTITIES[ident]
        made = []

        def forward(m, dec):
            out = row.forward(m, dec)
            made.append(out[0])
            return out

        def inverse(m, dec):
            m2, dec2, case = row.inverse(m, dec)
            if made and m is made[-1]:
                decs = enumerate_decorations(m2, ident, "lhs")
                dec2 = decs[(decs.index(dec2) + 1) % len(decs)]
            return m2, dec2, case

        monkeypatch.setitem(IDENTITIES, ident, row._replace(forward=forward, inverse=inverse))
        status, text = invoke(["verify-roundtrip", "--max-edges", "2"])
        assert status == 1
        fails = [ln for ln in text.splitlines() if ln.startswith("FAIL")]
        sources = [t for t, i, _ in cli.identity_families(2) if i is ident]
        assert len(fails) == sum(identity_sides(ident, t)[0] for t in sources) > 0
        for ln in fails:
            assert any(ln.startswith(f"FAIL {ident.value} lhs at {t} ") for t in sources), ln
        assert f"error: {len(fails)} round trips failed" in capsys.readouterr().err
        assert "all round trips passed" not in text

    def test_sweep_counts(self):
        _, text = invoke(["verify-roundtrip", "--max-edges", "1"])
        assert text == "round trips: 2 family sweeps\nall round trips passed\n"
        _, text = invoke(["verify-props", "--max-edges", "1"])
        assert text == (
            "direction censuses: 2 maps swept\nall direction censuses passed\n"
        )


class TestExport:
    def test_dot_from_file(self, tmp_path):
        src = tmp_path / "maps.jsonl"
        maps = enumerate_maps((2, 2))
        src.write_text("".join(m.to_json() + "\n" for m in maps) + "count=2\n")
        status, text = invoke(["export", "--input", str(src)])
        assert status == 0
        assert text.count("graph map") == 2
        assert "exported 2 maps" in text

    def test_dot_shape(self):
        text = to_dot(digon(), "g")
        assert text.startswith("graph g {")
        assert text.endswith("}")
        assert 'f1 [shape=box, label="face 1 (deg 2)"]' in text
        assert "arrowhead=normal" in text
        # one node per vertex, one edge line per edge, one mark line per face
        assert text.count(" -- ") == digon().n_edges + digon().n_faces

    def test_bad_file(self, capsys):
        status, _ = invoke(["export", "--input", "/nonexistent/path.jsonl"])
        assert status != 0
        assert "error:" in capsys.readouterr().err


class TestAdmissibleTypes:
    def test_small_census(self):
        types = list(admissible_types(2))
        assert (2,) in types and (1, 1) in types
        assert (4,) in types and (3, 1) in types and (1, 3) in types
        assert (2, 2) in types and (1, 1, 2) in types
        assert (3,) not in types and (1, 1, 1, 1) not in types
        # every listed type carries at least one map
        for t in types:
            assert tutte_count(t) == len(enumerate_maps(t)) > 0
