"""Subcommand behaviour: output contracts, determinism, exit codes."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from planemaps import verify
from planemaps.cli import run, to_dot
from planemaps.bijections import IDENTITIES
from planemaps.counting import (
    Identity,
    admissible_types,
    identity_families,
    identity_sides,
    tutte_count,
)
from planemaps.enumerator import enumerate_decorations, enumerate_maps
from planemaps.errors import BadArgument, TooManyEdges
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

    def test_identities_say_when_cardinalities_are_skipped(self):
        # above the enumerator's bound only the arithmetic runs, and says so
        status, text = invoke(["verify-identities", "--max-edges", "7"])
        assert status == 0
        assert text.splitlines() == [
            f"identity arithmetic: {len(list(identity_families(7)))} instances checked",
            "set cardinalities: skipped above 6 edges",
            "all identity checks passed",
        ]

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
        true_census = verify.direction_census
        calls = []

        def skewed(m, v):
            census = true_census(m, v)
            calls.append(v)
            if len(calls) == 5:
                toward, away, par = census[0]
                census[0] = (toward + 1, away, par)
            return census

        monkeypatch.setattr(verify, "direction_census", skewed)
        status, text = invoke(["verify-props", "--max-edges", "3"])
        assert status == 1
        fails = [ln for ln in text.splitlines() if ln.startswith("FAIL")]
        assert len(fails) == 1
        assert fails[0].startswith("FAIL direction census ")
        assert "all direction censuses passed" not in text
        assert "error: 1 censuses failed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify-roundtrip", "verify-identities"])
    def test_sweep_enumerates_each_family_side_once(self, command, monkeypatch):
        # the families are walked one at a time, each enumerating its
        # source type, then its target type, where the walk reaches it
        # (64 calls at k=3): no plan groups the sides by type
        calls = []
        real = verify.enumerate_maps

        def counting(t, **kwargs):
            calls.append(tuple(t))
            return real(t, **kwargs)

        monkeypatch.setattr(verify, "enumerate_maps", counting)
        status, text = invoke([command, "--max-edges", "3"])
        assert status == 0
        assert calls == [a for t, _, tt in identity_families(3) for a in (t, tt)]
        assert len(calls) == 64 and len(set(calls)) == 32
        if command == "verify-roundtrip":
            assert text == (
                "forward maps: 32 of 32 families one to one and onto\n"
                "round trips: 32 family sweeps\nall round trips passed\n"
            )
        else:
            assert text.splitlines()[1:] == [
                "set cardinalities: 32 instances checked",
                "all identity checks passed",
            ]

    @pytest.mark.parametrize("fault", ["loses", "repeats"])
    def test_roundtrip_reports_a_family_that_is_not_bijective(self, fault, monkeypatch, capsys):
        # one rhs list of one family loses its last decoration, or
        # repeats its first: every trip still passes, and the family's
        # forward images no longer match its rhs decorations one to one
        ident, target = Identity.FACE_TO_FACE, (4, 2)
        source = next(t for t, i, tt in identity_families(3) if (i, tt) == (ident, target))
        real = verify.enumerate_decorations
        spoiled = []

        def spoil(m, identity, side):
            decs = real(m, identity, side)
            if (identity, side, m.degrees) == (ident, "rhs", target) and not spoiled:
                spoiled.append(m)
                return decs[:-1] if fault == "loses" else decs + decs[:1]
            return decs

        monkeypatch.setattr(verify, "enumerate_decorations", spoil)
        status, text = invoke(["verify-roundtrip", "--max-edges", "3"])
        assert status == 1
        fails = [ln for ln in text.splitlines() if ln.startswith("FAIL")]
        assert len(fails) == 1 and spoiled
        assert fails[0].startswith(f"FAIL {ident.value} {source}: ")
        assert ("rhs decorations repeat" in fails[0]) == (fault == "repeats")
        assert ("images differ from the rhs family" in fails[0]) == (fault == "loses")
        assert "not one to one" not in fails[0]
        assert text.splitlines()[-2:] == [
            "forward maps: 31 of 32 families one to one and onto",
            "round trips: 32 family sweeps",
        ]
        assert "all round trips passed" not in text
        # the count names both kinds of check: trips and forward maps
        assert capsys.readouterr().err == "error: 1 round-trip checks failed\n"

    def test_keys_start_with_the_canonical_code(self):
        # round_trips keeps one copy of each code among a family's image
        # keys, which holds the k=5 sweep under CI's 64 MB peak-RSS gate
        for t, ident, tt in identity_families(2):
            row = IDENTITIES[ident]
            for side, a, key in (("lhs", t, row.lhs_key), ("rhs", tt, row.rhs_key)):
                for m in enumerate_maps(a):
                    for dec in enumerate_decorations(m, ident, side):
                        assert key(m, dec)[0] == m.canonical_code()

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
        sources = [t for t, i, _ in identity_families(2) if i is ident]
        assert len(fails) == sum(identity_sides(ident, t)[0] for t in sources) > 0
        for ln in fails:
            assert any(ln.startswith(f"FAIL {ident.value} lhs at {t} ") for t in sources), ln
        # the report keeps family order, then map order, then decoration
        # order
        assert fails == [
            f"FAIL {ident.value} lhs at {t} {dec}"
            for t in sources
            for m in enumerate_maps(t)
            for dec in enumerate_decorations(m, ident, "lhs")
        ]
        assert f"error: {len(fails)} round-trip checks failed" in capsys.readouterr().err
        assert "all round trips passed" not in text

    def test_roundtrip_refused_above_bound(self, monkeypatch, capsys):
        # the lhs maps of a 7-edge family are above the enumerator's bound,
        # so the sweep is refused before any type is enumerated
        def refuse(t, **kwargs):
            raise AssertionError(f"enumerate_maps({t}) called")

        monkeypatch.setattr(verify, "enumerate_maps", refuse)
        assert invoke(["verify-roundtrip", "--max-edges", "7"]) == (2, "")
        assert capsys.readouterr().err == "error: round trips run up to 6 edges, not 7\n"
        with pytest.raises(TooManyEdges):
            verify.round_trips(7)

    @pytest.mark.parametrize(
        "engine", [verify.identities, verify.round_trips, verify.censuses],
        ids=lambda f: f.__name__,
    )
    def test_engines_refuse_an_empty_sweep(self, engine):
        # a bound below one edge sweeps nothing; these reported zero
        # items and no failure, which reads as "all passed"
        for k in (0, -1, -2):
            with pytest.raises(BadArgument):
                engine(k)
        with pytest.raises(BadArgument):
            engine("3")

    def test_sweep_counts(self):
        _, text = invoke(["verify-roundtrip", "--max-edges", "1"])
        assert text == (
            "forward maps: 2 of 2 families one to one and onto\n"
            "round trips: 2 family sweeps\nall round trips passed\n"
        )
        _, text = invoke(["verify-props", "--max-edges", "1"])
        assert text == (
            "direction censuses: 2 maps swept\nall direction censuses passed\n"
        )


def test_closed_stdout_is_quiet():
    # a reader that stops after one line is not a bad input: no error
    # line, and a status other than 0 (all written) and 2 (bad input);
    # 500 DOT maps of 20 edges overfill the pipe, so the writer sees it
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    argv = ["sample", "--type", "40", "--count", "500", "--format", "dot"]
    with subprocess.Popen(
        [sys.executable, "-m", "planemaps.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline().startswith(b"graph sample0 {")
        proc.stdout.close()
        err = proc.stderr.read()
        status = proc.wait(timeout=120)
    assert err == b""
    assert status == 1


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

    def test_binary_file(self, tmp_path, capsys):
        # the head of an ELF executable: not UTF-8, so not JSON either
        src = tmp_path / "binary"
        src.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256)) + b"\n")
        status, text = invoke(["export", "--input", str(src)])
        assert status == 2
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: input is not text") and "Traceback" not in err


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
