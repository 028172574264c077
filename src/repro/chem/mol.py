"""Molecular graph model.

A :class:`Molecule` is an undirected labelled graph: atoms carry element,
formal charge and aromaticity; bonds carry integer order (1, 2, 3) or the
aromatic flag.  Implicit hydrogens are derived from default valences, the
same convention SMILES uses.  The class is deliberately small — just enough
structure for descriptors, fingerprints, depiction, conformer embedding and
bead typing, which is everything the IMPECCABLE stages consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chem import graph
from repro.chem.elements import AROMATIC_SYMBOLS, Element, get_element

__all__ = ["Atom", "Bond", "Molecule"]

#: contribution of a bond to valence, keyed by order; aromatic counts 1.5
_BOND_VALENCE = {1: 1.0, 2: 2.0, 3: 3.0}


@dataclass
class Atom:
    """One atom in a molecular graph."""

    symbol: str
    charge: int = 0
    aromatic: bool = False
    index: int = -1  # assigned by Molecule.add_atom

    @property
    def element(self) -> Element:
        """Static element properties of this atom."""
        return get_element(self.symbol)

    def __repr__(self) -> str:
        arom = "~" if self.aromatic else ""
        chg = f"{self.charge:+d}" if self.charge else ""
        return f"Atom({arom}{self.symbol}{chg}@{self.index})"


@dataclass
class Bond:
    """A bond between two atom indices."""

    a: int
    b: int
    order: int = 1
    aromatic: bool = False

    def valence(self) -> float:
        """Valence contribution of this bond to each endpoint.

        Aromatic bonds count 1; the delocalized π electron is accounted as
        a per-atom contribution (see :meth:`Molecule.pi_valence`), which is
        the convention that handles fused systems like naphthalene where a
        fusion carbon carries three aromatic bonds.
        """
        return 1.0 if self.aromatic else _BOND_VALENCE[self.order]

    def other(self, idx: int) -> int:
        """The bond endpoint that is not ``idx``."""
        if idx == self.a:
            return self.b
        if idx == self.b:
            return self.a
        raise ValueError(f"atom {idx} not in bond ({self.a}, {self.b})")


@dataclass
class Molecule:
    """Undirected molecular graph with implicit hydrogens.

    Atoms are referenced by dense integer index.  Use :meth:`add_atom` /
    :meth:`add_bond` to build, then :meth:`validate` to check valences.
    """

    atoms: list[Atom] = field(default_factory=list)
    bonds: list[Bond] = field(default_factory=list)
    name: str = ""

    def __post_init__(self) -> None:
        self._adjacency: dict[int, list[Bond]] | None = None

    # ---------------------------------------------------------------- build
    def add_atom(self, atom: Atom) -> int:
        """Append an atom and return its index."""
        atom.index = len(self.atoms)
        self.atoms.append(atom)
        self._adjacency = None
        return atom.index

    def add_bond(self, a: int, b: int, order: int = 1, aromatic: bool = False) -> Bond:
        """Add a bond between existing atoms ``a`` and ``b``."""
        n = len(self.atoms)
        if not (0 <= a < n and 0 <= b < n):
            raise IndexError(f"bond ({a}, {b}) references missing atom (n={n})")
        if a == b:
            raise ValueError("self-bonds are not allowed")
        if self.bond_between(a, b) is not None:
            raise ValueError(f"duplicate bond between {a} and {b}")
        if order not in _BOND_VALENCE:
            raise ValueError(f"bond order must be 1, 2 or 3, got {order}")
        bond = Bond(a, b, order=order, aromatic=aromatic)
        self.bonds.append(bond)
        self._adjacency = None
        return bond

    # ---------------------------------------------------------------- query
    @property
    def n_atoms(self) -> int:
        """Number of atoms (beads)."""
        return len(self.atoms)

    @property
    def n_bonds(self) -> int:
        """Number of bonds."""
        return len(self.bonds)

    def adjacency(self) -> dict[int, list[Bond]]:
        """Bonds incident to each atom (cached; invalidated on mutation)."""
        if self._adjacency is None:
            adj: dict[int, list[Bond]] = {i: [] for i in range(self.n_atoms)}
            for bond in self.bonds:
                adj[bond.a].append(bond)
                adj[bond.b].append(bond)
            self._adjacency = adj
        return self._adjacency

    def neighbors(self, idx: int) -> list[int]:
        """Indices of atoms bonded to ``idx``."""
        return [b.other(idx) for b in self.adjacency()[idx]]

    def bond_between(self, a: int, b: int) -> Bond | None:
        """The bond joining ``a`` and ``b``, or ``None``."""
        for bond in self.bonds:
            if {bond.a, bond.b} == {a, b}:
                return bond
        return None

    def degree(self, idx: int) -> int:
        """Number of bonds incident to atom ``idx``."""
        return len(self.adjacency()[idx])

    def pi_valence(self, idx: int) -> int:
        """Delocalized π contribution of an aromatic atom.

        Aromatic C and N (pyridine-type) each lend one π electron to the
        ring and so use one extra valence slot; aromatic O/S donate a lone
        pair instead and use none.  Pyrrole-type N is outside our subset.
        """
        atom = self.atoms[idx]
        if atom.aromatic and atom.symbol in ("C", "N"):
            return 1
        return 0

    def explicit_valence(self, idx: int) -> float:
        """Sum of bond + π contributions at ``idx`` (no implicit Hs)."""
        return sum(b.valence() for b in self.adjacency()[idx]) + self.pi_valence(idx)

    def implicit_hydrogens(self, idx: int) -> int:
        """Hydrogens implied by the default valence model."""
        atom = self.atoms[idx]
        used = self.explicit_valence(idx)
        target = atom.element.valence + atom.charge * _charge_valence_sign(atom.symbol)
        h = int(round(target - used))
        return max(0, h)

    def total_hydrogens(self) -> int:
        """Total implicit hydrogens over all atoms."""
        return sum(self.implicit_hydrogens(i) for i in range(self.n_atoms))

    # ---------------------------------------------------------------- graph
    def neighbor_lists(self) -> list[list[int]]:
        """:meth:`neighbors` of every atom: the input of :mod:`repro.chem.graph`."""
        return [self.neighbors(i) for i in range(self.n_atoms)]

    def rings(self) -> list[list[int]]:
        """Fundamental cycle basis of the molecular graph (list of atom rings).

        One ring per ring-closing bond of a depth-first spanning tree
        (:func:`repro.chem.graph.cycle_basis`), not the smallest set of
        rings: cubane's five rings are four 4-rings and a 6-ring.
        """
        return graph.cycle_basis(self.neighbor_lists())

    def is_connected(self) -> bool:
        """Whether the molecular graph is a single fragment."""
        if self.n_atoms <= 1:
            return True
        return len(graph.reachable(self.neighbor_lists(), 0)) == self.n_atoms

    # ------------------------------------------------------------- validate
    def validate(self) -> None:
        """Check structural and chemical consistency; raise ``ValueError``.

        * all bonds reference existing atoms,
        * no atom exceeds its default valence (given formal charge),
        * aromatic atoms are ring members of aromatic-capable elements.
        """
        ring_atoms = {i for ring in self.rings() for i in ring}
        for atom in self.atoms:
            target = (
                atom.element.valence + atom.charge * _charge_valence_sign(atom.symbol)
            )
            used = self.explicit_valence(atom.index)
            if used > target + 1e-9:
                raise ValueError(
                    f"atom {atom.index} ({atom.symbol}{atom.charge:+d}) "
                    f"over-valent: {used} > {target}"
                )
            if atom.aromatic:
                if atom.symbol not in AROMATIC_SYMBOLS:
                    raise ValueError(
                        f"element {atom.symbol} cannot be aromatic (atom {atom.index})"
                    )
                if atom.index not in ring_atoms:
                    raise ValueError(f"aromatic atom {atom.index} is not in a ring")

    # --------------------------------------------------------------- dunder
    def __repr__(self) -> str:
        return (
            f"Molecule(name={self.name!r}, atoms={self.n_atoms}, "
            f"bonds={self.n_bonds})"
        )


def _charge_valence_sign(symbol: str) -> int:
    """How formal charge shifts the target valence.

    Cations of N/O gain a bond slot (e.g. ammonium N has valence 4); anions
    of O/S lose one (e.g. alkoxide O binds once).  For carbon we use the
    carbanion/carbocation convention of losing a slot either way, which is
    a simplification adequate for the synthetic library.
    """
    if symbol in ("N", "O", "S", "P"):
        return 1
    return -1
