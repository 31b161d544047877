"""FLOW1xx determinism-taint tests.

One positive fixture per source family (FLOW101–FLOW105) plus the
negatives that pin the analysis' precision: taints that never reach a
sink, ``sorted(...)``/``.sort()`` neutralisation of order taints,
branch joins, loop-carried taint, and dict iteration deliberately not
being a source.
"""

import textwrap
from pathlib import Path

from repro.analysis import default_engine
from repro.analysis.engine import parse_module
from repro.analysis.flow.taint import DeterminismTaintRule


def taint_findings(tmp_path: Path, source: str, name: str = "repro/mod.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    module = parse_module(path, tmp_path)
    return DeterminismTaintRule().check(module)


def rule_ids(findings):
    return sorted(f.rule_id for f in findings)


# ----------------------------------------------------------------------
# FLOW101 — wall clock into a sink
# ----------------------------------------------------------------------

def test_flow101_wall_clock_into_digest(tmp_path):
    findings = taint_findings(tmp_path, """\
        import time
        from hashlib import blake2b

        def fingerprint(events):
            stamp = time.time()
            digest = blake2b(digest_size=8)
            digest.update(str(stamp).encode())
            return digest.hexdigest()
        """)
    assert rule_ids(findings) == ["FLOW101"]
    assert "wall-clock read time.time()" in findings[0].message
    assert "digest" in findings[0].message


def test_flow101_log_only_wall_clock_is_not_flagged(tmp_path):
    # A wall-clock read that feeds only a print is noise, not a
    # determinism break: the boundary is the sink, not the source.
    findings = taint_findings(tmp_path, """\
        import time

        def log(message):
            print(time.time(), message)
        """)
    assert findings == []


def test_flow101_datetime_now_into_derive_seed(tmp_path):
    findings = taint_findings(tmp_path, """\
        from datetime import datetime

        def reseed(derive_seed):
            salt = datetime.now().isoformat()
            return derive_seed(salt)
        """)
    assert rule_ids(findings) == ["FLOW101"]
    assert "derive_seed" in findings[0].message


# ----------------------------------------------------------------------
# FLOW102 — unseeded randomness
# ----------------------------------------------------------------------

def test_flow102_random_into_journal(tmp_path):
    findings = taint_findings(tmp_path, """\
        import random

        class Recorder:
            def __init__(self):
                self._journal = Journal("campaign")

            def note(self):
                jitter = random.random()
                self._journal.record({"jitter": jitter})
        """)
    assert rule_ids(findings) == ["FLOW102"]
    assert "unseeded randomness random.random()" in findings[0].message


def test_flow102_urandom_into_capture_writer(tmp_path):
    findings = taint_findings(tmp_path, """\
        import os

        def emit(writer):
            token = os.urandom(8)
            writer.write_event({"token": token})
        """)
    assert rule_ids(findings) == ["FLOW102"]


# ----------------------------------------------------------------------
# FLOW103 — id()
# ----------------------------------------------------------------------

def test_flow103_id_into_stats_table(tmp_path):
    findings = taint_findings(tmp_path, """\
        def tabulate(rx):
            table = ResultTable("runs")
            table.add(id(rx))
        """)
    assert rule_ids(findings) == ["FLOW103"]


def test_flow103_id_as_dict_key_only_is_clean(tmp_path):
    # The PR-5 device code keys a local dict by id(); the id never
    # reaches an output boundary, so there is nothing to report.
    findings = taint_findings(tmp_path, """\
        def dedupe(items):
            seen = {}
            for item in items:
                seen[id(item)] = item
            return list(seen.values())
        """)
    assert findings == []


# ----------------------------------------------------------------------
# FLOW104 — unsorted listings, and their sorted() cure
# ----------------------------------------------------------------------

def test_flow104_listdir_into_digest(tmp_path):
    findings = taint_findings(tmp_path, """\
        import os
        from hashlib import blake2b

        def tree_digest(root):
            digest = blake2b(digest_size=16)
            for name in os.listdir(root):
                digest.update(name.encode())
            return digest.hexdigest()
        """)
    assert rule_ids(findings) == ["FLOW104"]
    assert "unsorted listing os.listdir()" in findings[0].message


def test_flow104_sorted_listing_is_clean(tmp_path):
    findings = taint_findings(tmp_path, """\
        import os
        from hashlib import blake2b

        def tree_digest(root):
            digest = blake2b(digest_size=16)
            for name in sorted(os.listdir(root)):
                digest.update(name.encode())
            return digest.hexdigest()
        """)
    assert findings == []


def test_flow104_inplace_sort_neutralises(tmp_path):
    findings = taint_findings(tmp_path, """\
        import glob

        def manifest(writer, pattern):
            names = glob.glob(pattern)
            names.sort()
            writer.write_experiment({"files": names})
        """)
    assert findings == []


def test_flow104_pathlib_iterdir(tmp_path):
    findings = taint_findings(tmp_path, """\
        def manifest(writer, root):
            entries = [p.name for p in root.iterdir()]
            writer.write_record(1, {"entries": entries})
        """)
    assert rule_ids(findings) == ["FLOW104"]


# ----------------------------------------------------------------------
# FLOW105 — set iteration order (dict order deliberately exempt)
# ----------------------------------------------------------------------

def test_flow105_set_iteration_into_table(tmp_path):
    findings = taint_findings(tmp_path, """\
        def tally(symbols):
            table = ResultTable("symbols")
            uniq = set(symbols)
            for symbol in uniq:
                table.add(symbol)
        """)
    assert rule_ids(findings) == ["FLOW105"]


def test_flow105_sorted_set_iteration_is_clean(tmp_path):
    findings = taint_findings(tmp_path, """\
        def tally(symbols):
            table = ResultTable("symbols")
            for symbol in sorted(set(symbols)):
                table.add(symbol)
        """)
    assert findings == []


def test_dict_iteration_is_not_a_source(tmp_path):
    # CPython dicts are insertion-ordered and the codebase relies on
    # that; flagging dict iteration would drown the analysis in noise.
    findings = taint_findings(tmp_path, """\
        def tally(counts):
            table = ResultTable("counts")
            for key in counts:
                table.add(key)
            for key, value in counts.items():
                table.add((key, value))
        """)
    assert findings == []


def test_flow105_set_comprehension_iteration(tmp_path):
    findings = taint_findings(tmp_path, """\
        def tally(rows, writer):
            labels = [r for r in {row.label for row in rows}]
            writer.write_event({"labels": labels})
        """)
    assert rule_ids(findings) == ["FLOW105"]


# ----------------------------------------------------------------------
# Flow sensitivity: joins, loop-carried taint, reassignment kills
# ----------------------------------------------------------------------

def test_taint_survives_branch_join(tmp_path):
    findings = taint_findings(tmp_path, """\
        import time

        def stamp(flag, derive_seed):
            if flag:
                value = time.time()
            else:
                value = 0
            return derive_seed(value)
        """)
    assert rule_ids(findings) == ["FLOW101"]


def test_reassignment_on_every_path_kills_taint(tmp_path):
    findings = taint_findings(tmp_path, """\
        import time

        def stamp(derive_seed):
            value = time.time()
            value = 0
            return derive_seed(value)
        """)
    assert findings == []


def test_loop_carried_taint_reaches_sink_before_source_line(tmp_path):
    # The sink textually precedes the source; only the loop back-edge
    # carries the taint to it.  This is what the fixpoint pass is for.
    findings = taint_findings(tmp_path, """\
        import time

        def pump(derive_seed, rounds):
            value = 0
            for _ in range(rounds):
                derive_seed(value)
                value = time.time()
        """)
    assert rule_ids(findings) == ["FLOW101"]


def test_class_attr_kind_seeds_other_methods(tmp_path):
    # The digest is constructed in __init__; the sink method must still
    # know self._digest has kind digest.
    findings = taint_findings(tmp_path, """\
        import time
        from hashlib import blake2b

        class Golden:
            def __init__(self):
                self._digest = blake2b(digest_size=8)

            def absorb(self):
                self._digest.update(str(time.time()).encode())
        """)
    assert rule_ids(findings) == ["FLOW101"]


def test_unrelated_update_method_is_not_a_sink(tmp_path):
    # dict.update shares a name with digest.update; kind tracking keeps
    # the former from being a sink.
    findings = taint_findings(tmp_path, """\
        import time

        def merge(options):
            extra = {"stamp": time.time()}
            options.update(extra)
            return options
        """)
    assert findings == []


# ----------------------------------------------------------------------
# Engine integration: allowances and suppressions still apply
# ----------------------------------------------------------------------

def test_flow101_allowed_in_telemetry_package(tmp_path):
    (tmp_path / "repro" / "telemetry").mkdir(parents=True)
    (tmp_path / "repro" / "telemetry" / "probe.py").write_text(
        textwrap.dedent("""\
            import time

            def sample(derive_seed):
                return derive_seed(time.time())
            """),
        encoding="utf-8",
    )
    findings = default_engine(flow=True).run(tmp_path / "repro", tmp_path)
    assert [f for f in findings if f.rule_id == "FLOW101"] == []


def test_flow_findings_respect_line_suppressions(tmp_path):
    (tmp_path / "repro").mkdir(parents=True)
    (tmp_path / "repro" / "mod.py").write_text(
        textwrap.dedent("""\
            import time

            def stamp(derive_seed):
                return derive_seed(time.time())  # simlint: disable=FLOW101 -- test
            """),
        encoding="utf-8",
    )
    findings = default_engine(flow=True).run(tmp_path / "repro", tmp_path)
    assert [f for f in findings if f.rule_id == "FLOW101"] == []
