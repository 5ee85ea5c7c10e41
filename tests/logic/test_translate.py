"""The ECL → access point translation (Section 6.2), on the paper's
worked dictionary example (Appendix A.2)."""

import os
import subprocess
import sys

import pytest

from repro.core.errors import TranslationError
from repro.core.events import NIL, Action
from repro.logic.formulas import normalize_sides
from repro.logic.parser import parse_formula
from repro.logic.spec import CommutativitySpec
from repro.logic.translate import (DS, RawSchema, build_raw_translation,
                                   build_representation, translate)
from repro.specs.dictionary import dictionary_spec


@pytest.fixture(scope="module")
def raw():
    return build_raw_translation(dictionary_spec())


class TestBOfPhi:
    def test_b_phi_put_is_the_papers_set(self, raw):
        """B(Φ, put) = {v = p, v = nil, p = nil} (the worked example)."""
        atoms = {str(atom) for atom in raw.atoms_by_method["put"]}
        assert atoms == {"v = p", "v = nil", "p = nil"}

    def test_b_phi_get_and_size_empty(self, raw):
        assert raw.atoms_by_method["get"] == ()
        assert raw.atoms_by_method["size"] == ()


class TestRawSchemas:
    def test_schema_counts(self, raw):
        # put: 2^3 β × (ds + 3 slots) = 32; get: 1 × (ds + 2) = 3;
        # size: 1 × (ds + 1) = 2.
        assert raw.schema_count() == 32 + 3 + 2

    def test_every_schema_canonical_initially(self, raw):
        assert all(raw.canon[s] == s for s in raw.schemas)

    def test_put_ds_conflicts_size_ds_iff_resize(self, raw):
        """Appendix A.2: (o.put:β1:ds, o.size:∅:ds) ∈ Co iff
        ¬(β1(v=nil) ⟺ β1(p=nil))."""
        v_nil = normalize_sides(parse_formula("v1 == nil"))
        p_nil = normalize_sides(parse_formula("p1 == nil"))
        v_p = normalize_sides(parse_formula("v1 == p1"))
        size_ds = RawSchema("size", DS, frozenset())
        for v_val in (False, True):
            for p_val in (False, True):
                for vp_val in (False, True):
                    beta = frozenset({(v_nil, v_val), (p_nil, p_val),
                                      (v_p, vp_val)})
                    put_ds = RawSchema("put", DS, beta)
                    conflicting = size_ds in raw.conflicts.get(put_ds, ())
                    assert conflicting == (v_val != p_val)

    def test_put_slot_conflicts_get_slot_iff_writer(self, raw):
        """Appendix A.2: (o.put:β1:1:u, o.get:∅:1:v) ∈ Co iff u = v and
        ¬β1(k = v) — at schema level: slot-0 of put conflicts with slot-0
        of get exactly when β1(v=p) is false."""
        v_p = normalize_sides(parse_formula("v1 == p1"))
        get_k = RawSchema("get", 0, frozenset())
        for schema in raw.schemas:
            if schema.method == "put" and schema.slot == 0:
                writer = not dict(schema.beta)[v_p]
                assert (get_k in raw.conflicts.get(schema, ())) == writer

    def test_slot_points_carry_values_ds_points_do_not(self, raw):
        for schema in raw.schemas:
            assert schema.carries_value == (schema.slot != DS)


class TestRawRepresentation:
    def test_raw_touches_all_slots(self, raw):
        rep = build_representation(raw)
        action = Action("o", "put", ("k", 5), (NIL,))
        points = rep.points_of(action)
        # ds + one point per value (k, v, p).
        assert len(points) == 4
        values = {pt.value for pt in points}
        assert values == {None, "k", 5, NIL}

    def test_raw_representation_is_bounded(self, raw):
        assert build_representation(raw).bounded


class TestTranslateValidation:
    def test_incomplete_spec_rejected(self):
        spec = CommutativitySpec("partial").method("a").method("b")
        spec.pair("a", "a", "true")
        with pytest.raises(TranslationError):
            build_raw_translation(spec)

    def test_non_ecl_spec_rejected(self):
        spec = (CommutativitySpec("bad")
                .method("m", params=("x",))
                .pair("m", "m", "x1 == x2"))
        from repro.core.errors import FragmentError
        with pytest.raises(FragmentError):
            build_raw_translation(spec)

    def test_translate_requires_all_pairs(self):
        spec = (CommutativitySpec("ok").method("m", params=("x",))
                .pair("m", "m", "x1 != x2"))
        rep = translate(spec)
        assert rep.kind == "ok"


class TestTranslatedEta:
    def test_beta_computed_from_action_values(self):
        rep = translate(dictionary_spec())
        no_op = Action("o", "put", ("k", 7), (7,))      # v = p: a read
        writer = Action("o", "put", ("k", 7), (8,))     # v ≠ p: a write
        points_noop = rep.points_of(no_op)
        points_writer = rep.points_of(writer)
        schemas_noop = {pt.schema for pt in points_noop}
        schemas_writer = {pt.schema for pt in points_writer}
        assert schemas_noop != schemas_writer

    def test_resize_put_touches_plain_point(self):
        rep = translate(dictionary_spec())
        insert = Action("o", "put", ("k", 7), (NIL,))
        plain = [pt for pt in rep.points_of(insert) if pt.value is None]
        assert plain, "an inserting put must touch its ds/resize point"

    def test_mismatched_action_rejected(self):
        rep = translate(dictionary_spec())
        with pytest.raises(Exception):
            rep.points_of(Action("o", "put", ("only-key",), (NIL,)))

    def test_describe_lists_schemas(self):
        rep = translate(dictionary_spec())
        text = rep.describe()
        assert "representation of dictionary" in text
        assert "⨯" in text


class TestDeclarationOrder:
    """Conflict declaration order is the ``Co(pt)`` enumeration order, and
    hence the order races are reported in within an event; it must not
    depend on the interpreter's hash values."""

    SCRIPT = (
        "from repro.specs import bundled_objects\n"
        "rep = bundled_objects()['queue'].representation()\n"
        "for schema in sorted(rep.schemas, key=str):\n"
        "    print(schema, '->', ' | '.join(map(str, "
        "rep.conflict_peers(schema))))\n")

    def test_conflict_peers_order_is_the_same_in_fresh_interpreters(self):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src")
        outputs = set()
        for hash_seed in ("0", "1", "2", "3"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
            result = subprocess.run([sys.executable, "-c", self.SCRIPT],
                                    capture_output=True, text=True, env=env,
                                    check=True)
            assert "->" in result.stdout
            outputs.add(result.stdout)
        assert len(outputs) == 1, outputs
