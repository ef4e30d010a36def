"""Placeholder substitution, fragment extraction, reactant reconstruction.

The splice operation is shared by every expansion path: R-group values
from text tables, abbreviation atoms inside recognized structures, and
the inverse direction (pulling fragments back out of product variants).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Union

from .chemops import AbbreviationTable, AliasRegistry, Fragment, expand_abbreviation
from .molgraph import (
    GraphError,
    MolecularGraph,
    fragment_attachment,
    induced_fragment,
    main_component,
    renumber_chiral,
    validate_graph,
)
from .smiles import canonicalize, parse_smiles, write_smiles
from .substructure import scaffold_align

log = logging.getLogger(__name__)

Binding = Union[Fragment, str]


class MissingBindingError(GraphError):
    def __init__(self, labels: list[str]):
        self.labels = list(labels)
        super().__init__(f"no binding for placeholder label(s): {', '.join(labels)}")


@dataclass(frozen=True)
class ReactionTemplate:
    reactant_templates: tuple[MolecularGraph, ...]
    product_templates: tuple[MolecularGraph, ...]

    def __post_init__(self) -> None:
        if not self.reactant_templates or not self.product_templates:
            raise GraphError("a reaction template needs reactants and products")

    @classmethod
    def from_smiles(cls, spec) -> "ReactionTemplate":
        """Parse a ``{"reactants": [...], "products": [...]}`` spec of SMILES."""
        if not isinstance(spec, dict):
            raise GraphError("a reaction template spec must be a JSON object")
        sides = []
        for key in ("reactants", "products"):
            texts = spec.get(key)
            if not isinstance(texts, list):
                raise GraphError(f"template spec needs a list of SMILES under {key!r}")
            sides.append(tuple(parse_smiles(s) for s in texts))
        return cls(*sides)

    @property
    def placeholder_labels(self) -> frozenset[str]:
        labels: set[str] = set()
        for g in self.reactant_templates + self.product_templates:
            for i in g.placeholder_indices():
                labels.add(g.atoms[i].label)
        return frozenset(labels)


def splice_fragment(g: MolecularGraph, at: int, fragment: Fragment) -> MolecularGraph:
    """Replace atom ``at`` with ``fragment``, rewiring its bonds.

    Every bond that touched the removed atom is redirected onto the
    fragment's attachment atom; wedge and direction marks on those bonds
    are dropped, since the depiction geometry they encode no longer
    applies to the new substituent.
    """
    if not 0 <= at < len(g.atoms):
        raise GraphError(f"splice index {at} out of range")

    def shift(idx: int) -> int:
        return idx if idx < at else idx - 1

    offset = len(g.atoms) - 1
    attachment = offset + fragment.attachment

    def rewire(ref: int) -> int:
        return attachment if ref == at else shift(ref)

    # Only atoms that carry a chiral order pay for the renumbering call.
    atoms = [
        atom if atom.chiral_order is None else renumber_chiral(atom, rewire)
        for i, atom in enumerate(g.atoms)
        if i != at
    ]
    for atom in fragment.graph.atoms:
        if atom.chiral_order is not None:
            atom = renumber_chiral(atom, lambda ref: ref + offset)
        atoms.append(replace(atom, coords=None))

    bonds = []
    seen_pairs: set[frozenset[int]] = set()

    def push(bond) -> None:
        key = frozenset((bond.a, bond.b))
        if key in seen_pairs:
            raise GraphError(
                f"splice at atom {at} would create a duplicate bond {bond.a}-{bond.b}"
            )
        seen_pairs.add(key)
        bonds.append(bond)

    for bond in g.bonds:
        if at in (bond.a, bond.b):
            other = shift(bond.other(at))
            push(
                replace(
                    bond, a=other, b=attachment, wedge="none", direction=None
                )
            )
        else:
            push(replace(bond, a=shift(bond.a), b=shift(bond.b)))
    for bond in fragment.graph.bonds:
        push(replace(bond, a=bond.a + offset, b=bond.b + offset))

    return replace(g, atoms=tuple(atoms), bonds=tuple(bonds), provenance={})


def _resolve_binding(
    value: Binding,
    table: Optional[AbbreviationTable],
    registry: Optional[AliasRegistry],
) -> Fragment:
    if isinstance(value, Fragment):
        return value
    return expand_abbreviation(value, table, registry)


def substitute_placeholders(
    g: MolecularGraph,
    assignment: Mapping[str, Binding],
    table: Optional[AbbreviationTable] = None,
    registry: Optional[AliasRegistry] = None,
) -> MolecularGraph:
    """Splice bound fragments into every matching placeholder atom.

    Placeholders whose label has no binding stay in place. Bindings may
    be ready-made fragments or abbreviation tokens; token expansion never
    fails (unknown tokens become aliased wildcards).
    """
    target_indices = [
        i
        for i in g.placeholder_indices()
        if g.atoms[i].label in assignment
    ]
    out = g
    for at in sorted(target_indices, reverse=True):
        fragment = _resolve_binding(assignment[g.atoms[at].label], table, registry)
        out = splice_fragment(out, at, fragment)
    violations = validate_graph(out)
    if violations:
        raise GraphError(f"substitution produced an invalid graph: {violations[0]}")
    return out


def expand_abbreviations(
    g: MolecularGraph,
    table: Optional[AbbreviationTable] = None,
    registry: Optional[AliasRegistry] = None,
) -> MolecularGraph:
    """Replace every abbreviation atom with its expanded fragment."""
    targets = [i for i, atom in enumerate(g.atoms) if atom.kind == "abbreviation"]
    out = g
    for at in sorted(targets, reverse=True):
        fragment = expand_abbreviation(g.atoms[at].text, table, registry)
        out = splice_fragment(out, at, fragment)
    return out


def extract_rgroup_fragments(
    product_template: MolecularGraph, product_variant: MolecularGraph
) -> dict[str, Fragment]:
    """Recover the fragment bound to each template placeholder.

    Aligns the template onto the variant and cuts out, per placeholder,
    the substituent subgraph hanging off its mapped atom.
    """
    mapping, roots = scaffold_align(product_template, product_variant)
    bindings: dict[str, Fragment] = {}
    for p, root_atoms in roots.items():
        label = product_template.atoms[p].label
        frag_graph = induced_fragment(product_variant, root_atoms, mapping[p])
        fragment = Fragment(graph=frag_graph, attachment=fragment_attachment(frag_graph))
        if label in bindings:
            if canonicalize(bindings[label].graph) != canonicalize(fragment.graph):
                log.warning(
                    "placeholder %s extracted twice with different fragments; keeping first",
                    label,
                )
            continue
        bindings[label] = fragment
    return bindings


def reconstruct_reactants(
    template: ReactionTemplate,
    assignment: Mapping[str, Binding],
    table: Optional[AbbreviationTable] = None,
    registry: Optional[AliasRegistry] = None,
) -> list[str]:
    """Instantiate every reactant template and write isomeric SMILES.

    Raises :class:`MissingBindingError` when the assignment does not
    cover all reactant-side placeholder labels.
    """
    needed: set[str] = set()
    for g in template.reactant_templates:
        for i in g.placeholder_indices():
            needed.add(g.atoms[i].label)
    missing = sorted(needed - set(assignment))
    if missing:
        raise MissingBindingError(missing)
    out: list[str] = []
    for g in template.reactant_templates:
        spliced = substitute_placeholders(g, assignment, table, registry)
        out.append(write_smiles(main_component(spliced), isomeric=True))
    return out
