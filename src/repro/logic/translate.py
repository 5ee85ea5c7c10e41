"""ECL → access point representation (Section 6.2).

The translation turns a logical specification ``Φ`` into ``⟨Xo, ηo, Co⟩``:

1. **Normalize** the LB atoms of ``Φ`` into ``B(Φ)`` (sides erased), and
   restrict per method: ``B(Φ, m)`` are the atoms relevant to ``m``.
2. **β vectors**: every action of ``m`` induces ``β : B(Φ, m) → bool`` by
   evaluating each atom on the action's arguments and returns.
3. **Access points**: an action ``a = o.m(~u)/~v`` with values
   ``w1..wn = ~u~v`` touches ``o.m:β:ds`` plus ``o.m:β:i:wi`` for each i.
4. **Conflicts**: for every pair ``ϕ_{m1,m2} ∈ Φ`` and β vectors β1, β2,
   substitute to get ``ϕ[β1;β2]`` — an LS formula (Lemma 6.4) — and set

   * ``(o.m1:β1:ds, o.m2:β2:ds) ∈ R``   iff ``ϕ[β1;β2] ≡ false``;
   * ``(o.m1:β1:i:u, o.m2:β2:j:u) ∈ R`` iff ``ϕ[β1;β2] ≢ false`` and it
     contains a conjunct ``xi ≠ yj``.

We factor points into finite *schemas* ``(method, β, slot)`` plus a runtime
value (see :mod:`repro.core.access_points`), so the infinite ``Xo`` has a
finite table and ``Co(pt)`` is enumerable — each schema conflicts with a
bounded number of schemas, which is Theorem 6.6.

:func:`translate` optionally applies the Appendix A.3 optimizations
(:mod:`repro.logic.optimize`) before building the final representation;
``optimize=False`` yields the raw translation (used by the ablation bench).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (Any, Dict, FrozenSet, Iterable, List, Optional, Set,
                    Tuple, Union)

from ..core.access_points import SchemaRepresentation
from ..core.errors import TranslationError
from ..core.events import Action
from .formulas import Formula, Var, evaluate, normalize_sides
from .fragments import lb_atoms, require_ecl
from .simplify import substitute_beta, to_ls
from .spec import CommutativitySpec, MethodSig

__all__ = ["Slot", "DS", "RawSchema", "TranslationResult",
           "build_raw_translation", "build_representation",
           "TranslatedRepresentation", "translate"]

DS = "ds"
Slot = Union[str, int]
"""``"ds"`` for the invocation-witness point, or a 0-based value index."""

AtomKey = Formula          # a normalized LB atom
Beta = FrozenSet[Tuple[AtomKey, bool]]


@dataclass(frozen=True)
class RawSchema:
    """A translated access-point schema ``o.m:β:slot``.

    Concrete points instantiate a schema on an object, with the witnessed
    value ``wi`` for slot schemas (``slot`` is the index ``i``) and no value
    for ``ds`` schemas.
    """

    method: str
    slot: Slot
    beta: Beta

    @property
    def carries_value(self) -> bool:
        return self.slot != DS

    def __str__(self) -> str:
        beta = ",".join(f"{'' if val else '¬'}[{atom}]"
                        for atom, val in sorted(
                            self.beta, key=lambda kv: str(kv[0])))
        slot = self.slot if self.slot == DS else f"w{self.slot}"
        return f"{self.method}:β{{{beta}}}:{slot}"


@dataclass
class TranslationResult:
    """The mutable intermediate form the optimizer rewrites.

    ``canon`` maps every originally generated schema to its current
    representative (or ``None`` once deleted by cleanup); ``conflicts`` is
    kept symmetric over current representatives only.
    """

    spec: CommutativitySpec
    atoms_by_method: Dict[str, Tuple[AtomKey, ...]]
    schemas: Set[RawSchema] = field(default_factory=set)
    conflicts: Dict[RawSchema, Set[RawSchema]] = field(default_factory=dict)
    canon: Dict[RawSchema, Optional[RawSchema]] = field(default_factory=dict)

    # -- mutation helpers used by the optimizer ------------------------------

    def add_conflict(self, s1: RawSchema, s2: RawSchema) -> None:
        self.conflicts.setdefault(s1, set()).add(s2)
        self.conflicts.setdefault(s2, set()).add(s1)

    def neighborhood(self, schema: RawSchema) -> FrozenSet[RawSchema]:
        return frozenset(self.conflicts.get(schema, ()))

    def delete(self, schema: RawSchema) -> None:
        """Remove a schema entirely (cleanup of conflict-free points)."""
        self.schemas.discard(schema)
        for peer in self.conflicts.pop(schema, ()):
            if peer != schema:
                self.conflicts[peer].discard(schema)
        for original, rep in self.canon.items():
            if rep == schema:
                self.canon[original] = None

    def merge(self, group: Iterable[RawSchema]) -> RawSchema:
        """Collapse congruent schemas onto one representative."""
        members = sorted(group, key=str)
        rep, rest = members[0], members[1:]
        for member in rest:
            self.schemas.discard(member)
            peers = self.conflicts.pop(member, set())
            for peer in peers:
                if peer in (member, rep):
                    # self-conflict within the class transfers to rep-rep
                    self.add_conflict(rep, rep)
                    self.conflicts.get(peer, set()).discard(member)
                else:
                    self.conflicts[peer].discard(member)
                    self.add_conflict(rep, peer)
        for original, current in self.canon.items():
            if current in rest:
                self.canon[original] = rep
        return rep

    # -- statistics (used by tests and the ablation bench) --------------------

    def schema_count(self) -> int:
        return len(self.schemas)

    def max_degree(self) -> int:
        live = [len(peers) for schema, peers in self.conflicts.items()
                if schema in self.schemas]
        return max(live, default=0)


def _method_atoms(spec: CommutativitySpec) -> Dict[str, Tuple[AtomKey, ...]]:
    """``B(Φ, m)`` for every method: normalized LB atoms relevant to m."""
    atoms: Dict[str, List[AtomKey]] = {m: [] for m in spec.methods}
    for m1, m2, formula in spec.pairs():
        require_ecl(formula, context=f"ϕ_{{{m1},{m2}}} of {spec.kind}")
        for atom in lb_atoms(formula):
            sides = {arg.side for arg in atom.args
                     if isinstance(arg, Var) and arg.side is not None}
            normalized = normalize_sides(atom)
            targets = []
            if not sides:
                continue  # ground atom: folded during substitution
            for side in sides:
                targets.append(m1 if int(side) == 1 else m2)
            for method in targets:
                if normalized not in atoms[method]:
                    atoms[method].append(normalized)
    return {m: tuple(atom_list) for m, atom_list in atoms.items()}


def _all_betas(atoms: Tuple[AtomKey, ...]) -> List[Beta]:
    """Every assignment ``B(Φ, m) → {true, false}`` as a frozen β."""
    betas: List[Beta] = []
    for values in itertools.product((False, True), repeat=len(atoms)):
        betas.append(frozenset(zip(atoms, values)))
    return betas


def build_raw_translation(spec: CommutativitySpec) -> TranslationResult:
    """Steps 1–4 of Section 6.2, without the Appendix A.3 optimizations."""
    if not spec.is_complete():
        raise TranslationError(
            f"specification {spec.kind!r} is incomplete: every method pair "
            f"needs a formula (use default_true()/default_false())")
    atoms_by_method = _method_atoms(spec)
    result = TranslationResult(spec=spec, atoms_by_method=atoms_by_method)

    # Generate Xo: a ds schema and one slot schema per value, per β.
    betas: Dict[str, List[Beta]] = {}
    for method, sig in spec.methods.items():
        betas[method] = _all_betas(atoms_by_method[method])
        for beta in betas[method]:
            schemas = [RawSchema(method, DS, beta)]
            schemas += [RawSchema(method, i, beta)
                        for i in range(sig.arity)]
            for schema in schemas:
                result.schemas.add(schema)
                result.canon[schema] = schema
                result.conflicts.setdefault(schema, set())

    # Build Co from ϕ[β1; β2] for every method pair and β pair.
    for m1, m2, _ in spec.pairs():
        formula = spec.formula_for(m1, m2)
        sig1, sig2 = spec.signature(m1), spec.signature(m2)
        for beta1 in betas[m1]:
            b1 = dict(beta1)
            for beta2 in betas[m2]:
                _conflicts_for(result, formula, m1, sig1, beta1, b1,
                               m2, sig2, beta2)
    return result


def _conflicts_for(result: TranslationResult, formula: Formula,
                   m1: str, sig1: MethodSig, beta1: Beta, b1: Dict,
                   m2: str, sig2: MethodSig, beta2: Beta) -> None:
    residual = to_ls(substitute_beta(formula, b1, dict(beta2)))
    if residual is True:
        return
    if residual is False:
        result.add_conflict(RawSchema(m1, DS, beta1),
                            RawSchema(m2, DS, beta2))
        return
    for x_name, y_name in residual:
        i = sig1.value_index(x_name)
        j = sig2.value_index(y_name)
        result.add_conflict(RawSchema(m1, i, beta1),
                            RawSchema(m2, j, beta2))


class TranslatedRepresentation(SchemaRepresentation):
    """The executable ``⟨Xo, ηo, Co⟩`` produced from a translation result.

    ``ηo`` computes the action's full β by evaluating ``B(Φ, m)`` on its
    values, then maps each ``(m, slot, β)`` through ``canon`` — so the same
    code serves raw and optimized translations (for the latter, ``canon``
    collapses merged schemas and drops deleted ones).
    """

    def __init__(self, result: TranslationResult):
        self._result = result
        self._spec = result.spec
        value_schemas = {s for s in result.schemas if s.carries_value}
        plain_schemas = result.schemas - value_schemas
        # Declaration order is the Co(pt) enumeration order, and hence the
        # order races are reported in within an event.  RawSchema hashes
        # differ between interpreters, so iterate the sets sorted (as
        # describe() and merge() do), never in hash order.
        pairs = []
        for schema in sorted(result.schemas, key=str):
            for peer in sorted(result.conflicts.get(schema, ()), key=str):
                pairs.append((schema, peer))
        super().__init__(
            kind=result.spec.kind,
            value_schemas=value_schemas,
            plain_schemas=plain_schemas,
            conflict_pairs=pairs,
            touches=self._touches,
        )

    def _touches(self, action: Action):
        method = action.method
        sig = self._spec.signature(method)
        env = sig.bind(action)
        atoms = self._result.atoms_by_method[method]
        beta = frozenset(
            (atom, evaluate(atom, lambda var: env[var.name]))
            for atom in atoms)
        canon = self._result.canon
        values = action.values
        out = []
        for slot in (DS, *range(sig.arity)):
            rep = canon.get(RawSchema(method, slot, beta))
            if rep is None:
                continue
            out.append((rep, None if slot == DS else values[slot]))
        return out

    @property
    def translation(self) -> TranslationResult:
        return self._result

    def describe(self) -> str:
        """Human-readable dump of schemas and conflicts (for docs/tests)."""
        lines = [f"representation of {self.kind}:"]
        for schema in sorted(self._result.schemas, key=str):
            peers = sorted(self._result.conflicts.get(schema, ()), key=str)
            tag = "value" if schema.carries_value else "plain"
            lines.append(f"  {schema}  [{tag}]")
            for peer in peers:
                lines.append(f"    ⨯ {peer}")
        return "\n".join(lines)


def build_representation(result: TranslationResult) -> TranslatedRepresentation:
    return TranslatedRepresentation(result)


def translate(spec: CommutativitySpec,
              optimize: bool = True) -> TranslatedRepresentation:
    """Translate an ECL specification to an access point representation.

    With ``optimize=True`` (default) the Appendix A.3 passes run first:
    conflict-free points are removed and congruent schemas merged, which
    yields representations like Fig. 7 for the Fig. 6 dictionary.  The
    representation is always *bounded* (Theorem 6.6), so the detector's
    ENUMERATE strategy applies.
    """
    result = build_raw_translation(spec)
    if optimize:
        from .optimize import optimize_translation
        optimize_translation(result)
    return build_representation(result)
