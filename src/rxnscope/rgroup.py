"""Placeholder substitution, fragment extraction, reactant reconstruction.

The splice operation is shared by every expansion path: R-group values
from text tables, abbreviation atoms inside recognized structures, and
the inverse direction (pulling fragments back out of product variants).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional, Union

from .chemops import AbbreviationTable, AliasRegistry
from .jsonshape import Closed, Required
from .molgraph import (
    Bond,
    Fragment,
    GraphError,
    MolecularGraph,
    main_component,
    renumber_chiral,
)
from .smiles import canonicalize, write_smiles
from .substructure import Pattern, scaffold_align

log = logging.getLogger(__name__)

Binding = Union[Fragment, str]


class MissingBindingError(GraphError):
    def __init__(self, labels: list[str]):
        self.labels = list(labels)
        super().__init__(f"no binding for placeholder label(s): {', '.join(labels)}")


# A reaction template spec in ``jsonshape`` terms: the SMILES of each side.
TEMPLATE_SPEC = Closed({Required("reactants"): [str], Required("products"): [str]})


@dataclass(frozen=True)
class ReactionTemplate:
    """Reactant and product template graphs, and how they are instantiated.

    The first product template prepared for alignment and the SMILES text
    of each placeholder-free template are built on first use and kept, so
    a template read once serves all of its variants.
    """

    reactant_templates: tuple[MolecularGraph, ...]
    product_templates: tuple[MolecularGraph, ...]
    _written: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def product_pattern(self) -> Pattern:
        """The first product template, prepared for :func:`scaffold_align`;
        reconstruction needs a template with both sides."""
        if not self.reactant_templates or not self.product_templates:
            raise GraphError("a reaction template needs reactants and products")
        return Pattern(self.product_templates[0])

    def instantiate(self, side: str, bindings: Mapping[str, Binding], registry: AliasRegistry) -> list[str]:
        """Each template of ``side`` ("reactants" or "products") with
        ``bindings`` bound (:func:`bind_placeholders`), cut to its main
        component and written as SMILES; one with no placeholder is
        written the first time it is met, and handed out from then on."""
        out = []
        for i, g in enumerate(self.reactant_templates if side == "reactants" else self.product_templates):
            if g.placeholder_indices():
                out.append(write_smiles(main_component(bind_placeholders(g, bindings, registry))))
                continue
            if (side, i) not in self._written:
                self._written[side, i] = write_smiles(main_component(g))
            out.append(self._written[side, i])
        return out


def splice_fragment(g: MolecularGraph, fragments: Mapping[int, Fragment]) -> MolecularGraph:
    """Replace each atom ``at`` of ``g`` with ``fragments[at]``, in one pass.

    Kept atoms keep their order and the fragments follow, highest replaced
    index first.  A bond that touched a replaced atom now ends at that
    fragment's attachment, written (other end, attachment) with the lower
    replaced atom as "attachment" when both ends were replaced; it loses
    its wedge and direction marks, whose geometry belonged to the replaced
    atom.  A replaced atom with one neighbour grafts its fragment onto it,
    which fills the :data:`~rxnscope.molgraph.GRAFT_SLOT` of a chiral
    attachment; one with more, or whose one neighbour is a lower replaced
    atom, leaves the slot empty and the attachment loses its tag.
    Nothing to replace returns ``g`` itself.
    """
    if not fragments:
        return g
    if any(not 0 <= at < len(g.atoms) for at in fragments):
        raise GraphError(f"splice index out of range in {sorted(fragments)}")
    kept = [i for i in range(len(g.atoms)) if i not in fragments]
    new_index = {old: new for new, old in enumerate(kept)}
    atoms = [g.atoms[i] for i in kept]
    grafted: list[Bond] = []
    adj = g.adjacency()
    for at in sorted(fragments, reverse=True):
        # The one atom a fragment is bonded to, when it is known by now.
        onto = new_index.get(adj[at][0][0]) if len(adj[at]) == 1 else None
        new_index[at] = fragments[at].graft_onto(atoms, grafted, onto)
    for pos, atom in enumerate(atoms[: len(kept)]):
        if atom.chiral_order is not None:
            atoms[pos] = renumber_chiral(atom, new_index.get)

    bonds = []
    for bond in g.bonds:
        ends = [end for end in (bond.a, bond.b) if end in fragments]
        if ends:
            b = min(ends)
            a = bond.other(b)
            bond = Bond(new_index[a], new_index[b], bond.order)
        else:
            bond = bond.moved(new_index[bond.a], new_index[bond.b])
        bonds.append(bond)
    bonds += grafted
    return MolecularGraph(atoms=tuple(atoms), bonds=tuple(bonds))


def bind_placeholders(
    g: MolecularGraph,
    bindings: Mapping[str, Binding],
    registry: Optional[AliasRegistry] = None,
) -> MolecularGraph:
    """Splice each bound placeholder atom, reading nothing.

    A fragment is spliced as it is; a token is one its caller could not
    read, and becomes its aliased wildcard. Placeholders whose label has
    no binding stay in place. Tokens alias from the highest atom index
    down, which fixes the order of alias numbers; without a ``registry``
    the call numbers its aliases in one of its own.
    """
    registry = registry if registry is not None else AliasRegistry()
    fragments = {}
    for at in reversed(g.placeholder_indices()):
        value = bindings.get(g.atoms[at].label)
        if value is not None:
            fragments[at] = value if isinstance(value, Fragment) else registry.wildcard(value)
    return splice_fragment(g, fragments)


def substitute_placeholders(
    g: MolecularGraph,
    assignment: Mapping[str, Binding],
    table: Optional[AbbreviationTable] = None,
    registry: Optional[AliasRegistry] = None,
) -> MolecularGraph:
    """:func:`bind_placeholders` with each abbreviation token of
    ``assignment`` read first; one that reads as nothing stays a token."""
    table = table if table is not None else AbbreviationTable.default()
    bindings = {
        label: value if isinstance(value, Fragment) else table.read(value) or value
        for label, value in assignment.items()
    }
    return bind_placeholders(g, bindings, registry)


def expand_abbreviations(g: MolecularGraph, registry: Optional[AliasRegistry] = None) -> MolecularGraph:
    """Replace every abbreviation atom with the fragment its text reads as
    (:meth:`AbbreviationTable.read`), or with its aliased wildcard.

    Without a ``registry`` the call numbers its aliases in one of its own.
    """
    registry = registry if registry is not None else AliasRegistry()
    fragments = {}
    for at in reversed([i for i, atom in enumerate(g.atoms) if atom.kind == "abbreviation"]):
        token = g.atoms[at].text
        fragments[at] = AbbreviationTable.default().read(token) or registry.wildcard(token)
    return splice_fragment(g, fragments)


def extract_rgroup_fragments(
    product_template: Union[MolecularGraph, Pattern], product_variant: MolecularGraph
) -> dict[str, Fragment]:
    """Recover the fragment bound to each template placeholder.

    Aligns the template (a graph or a prepared :class:`Pattern`) onto the
    variant and cuts out, per placeholder, the substituent subgraph
    hanging off its mapped atom.
    """
    pattern = Pattern.of(product_template)
    mapping, roots = scaffold_align(pattern, product_variant)
    bindings: dict[str, Fragment] = {}
    for p, root_atoms in roots.items():
        label = pattern.graph.atoms[p].label
        fragment = Fragment.cut(product_variant, root_atoms, mapping[p])
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
    registry: Optional[AliasRegistry] = None,
) -> list[str]:
    """Every reactant template instantiated (:meth:`ReactionTemplate.instantiate`)
    with ``assignment``; a token in it is bound unread, as its wildcard.

    Raises :class:`MissingBindingError` when the assignment does not
    cover all reactant-side placeholder labels.  Without a ``registry``
    the call numbers its aliases in one of its own.
    """
    needed: set[str] = set()
    for g in template.reactant_templates:
        for i in g.placeholder_indices():
            needed.add(g.atoms[i].label)
    missing = sorted(needed - set(assignment))
    if missing:
        raise MissingBindingError(missing)
    registry = registry if registry is not None else AliasRegistry()
    return template.instantiate("reactants", assignment, registry)


def reconstruct_variant(
    template: ReactionTemplate,
    variant: MolecularGraph,
    registry: Optional[AliasRegistry] = None,
) -> tuple[list[str], dict[str, str]]:
    """The reactants that give ``variant`` by ``template``, and its bindings.

    The reactants are written as SMILES (:meth:`ReactionTemplate.instantiate`).
    The bindings are read off the first product template and written as
    SMILES, sorted by label.
    """
    bindings = extract_rgroup_fragments(template.product_pattern, variant)
    reactants = reconstruct_reactants(template, bindings, registry=registry)
    return reactants, {label: write_smiles(frag.graph) for label, frag in sorted(bindings.items())}
