"""Synthetic compound libraries.

The paper screens ZINC/MCULE/Enamine-derived libraries ("OZD" for training,
"ORD" for transfer).  We substitute a combinatorial generator: drug-like
molecules assembled from ring scaffolds and substituent fragments, emitted
as SMILES from our own writer (so every library member is guaranteed to
round-trip through the parser).  Because generation is seeded, the "true
top-ranking compounds" of any downstream experiment are exactly
reproducible — which is what lets benches measure enrichment without a
4.2-billion-compound data release.

Shard I/O mirrors §6.1.1: libraries serialize to fixed-size gzip NDJSON
shards (see :mod:`repro.util.shardio`), the format the ML1 inference
pipeline streams.  :func:`stream_library` is the generator-backed path:
it emits the *same* seeded compounds as :func:`generate_library`, shard
by shard, without ever materializing the library, which is what lets a
billion-compound screen run at bounded memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.chem.descriptors import Descriptors, compute_descriptors
from repro.chem.fingerprint import morgan_fingerprint
from repro.chem.mol import Atom, Molecule
from repro.chem.smiles import canonical_smiles, parse_smiles, write_smiles
from repro.util.rng import RngFactory
from repro.util.shardio import read_shard, shard_path, write_shard

__all__ = [
    "CompoundLibrary",
    "LibraryEntry",
    "generate_library",
    "library_overlap",
    "stream_library",
    "write_library_shards",
]


# --------------------------------------------------------------- fragments


def _ring(symbols: Sequence[str], aromatic: bool) -> Molecule:
    mol = Molecule()
    n = len(symbols)
    for s in symbols:
        mol.add_atom(Atom(symbol=s, aromatic=aromatic))
    for i in range(n):
        mol.add_bond(i, (i + 1) % n, order=1, aromatic=aromatic)
    return mol


def _chain(symbols: Sequence[str], orders: Sequence[int] | None = None) -> Molecule:
    mol = Molecule()
    for s in symbols:
        mol.add_atom(Atom(symbol=s))
    orders = orders or [1] * (len(symbols) - 1)
    for i, o in enumerate(orders):
        mol.add_bond(i, i + 1, order=o)
    return mol


def _scaffolds() -> list[Molecule]:
    """Ring systems substituents hang off.  Attachment = any under-valent atom."""
    benzene = _ring(["C"] * 6, aromatic=True)
    pyridine = _ring(["N"] + ["C"] * 5, aromatic=True)
    pyrimidine = _ring(["N", "C", "N", "C", "C", "C"], aromatic=True)
    furan = _ring(["O", "C", "C", "C", "C"], aromatic=True)
    thiophene = _ring(["S", "C", "C", "C", "C"], aromatic=True)
    cyclohexane = _ring(["C"] * 6, aromatic=False)
    piperidine = _ring(["N"] + ["C"] * 5, aromatic=False)
    morpholine = _ring(["O", "C", "C", "N", "C", "C"], aromatic=False)
    # biphenyl-like fused scaffold: two benzenes joined by a single bond
    biphenyl = _ring(["C"] * 6, aromatic=True)
    offset = biphenyl.n_atoms
    second = _ring(["C"] * 6, aromatic=True)
    for atom in second.atoms:
        biphenyl.add_atom(Atom(symbol=atom.symbol, aromatic=atom.aromatic))
    for bond in second.bonds:
        biphenyl.add_bond(bond.a + offset, bond.b + offset, bond.order, bond.aromatic)
    biphenyl.add_bond(0, offset, order=1)
    return [
        benzene,
        pyridine,
        pyrimidine,
        furan,
        thiophene,
        cyclohexane,
        piperidine,
        morpholine,
        biphenyl,
    ]


def _substituents() -> list[Molecule]:
    """Fragments attached at their atom 0."""
    frags = [
        _chain(["F"]),
        _chain(["Cl"]),
        _chain(["Br"]),
        _chain(["C"]),  # methyl
        _chain(["C", "C"]),  # ethyl
        _chain(["O"]),  # hydroxyl
        _chain(["N"]),  # amine
        _chain(["O", "C"]),  # methoxy
        _chain(["C", "N"], orders=[3]),  # nitrile
        _chain(["C", "O"], orders=[2]),  # aldehyde / carbonyl
        _chain(["N", "C"]),  # methylamine
    ]
    # carboxylic acid: C(=O)O
    acid = Molecule()
    acid.add_atom(Atom("C"))
    acid.add_atom(Atom("O"))
    acid.add_atom(Atom("O"))
    acid.add_bond(0, 1, order=2)
    acid.add_bond(0, 2, order=1)
    frags.append(acid)
    # amide: C(=O)N
    amide = Molecule()
    amide.add_atom(Atom("C"))
    amide.add_atom(Atom("O"))
    amide.add_atom(Atom("N"))
    amide.add_bond(0, 1, order=2)
    amide.add_bond(0, 2, order=1)
    frags.append(amide)
    # trifluoromethyl: C(F)(F)F
    cf3 = Molecule()
    cf3.add_atom(Atom("C"))
    for _ in range(3):
        j = cf3.add_atom(Atom("F"))
        cf3.add_bond(0, j)
    frags.append(cf3)
    return frags


def _merge(base: Molecule, site: int, frag: Molecule, frag_site: int = 0) -> None:
    """Graft ``frag`` onto ``base`` with a single bond site↔frag_site."""
    offset = base.n_atoms
    for atom in frag.atoms:
        base.add_atom(Atom(symbol=atom.symbol, charge=atom.charge, aromatic=atom.aromatic))
    for bond in frag.bonds:
        base.add_bond(bond.a + offset, bond.b + offset, bond.order, bond.aromatic)
    base.add_bond(site, frag_site + offset, order=1)


def _spare_valence_sites(mol: Molecule) -> list[int]:
    return [
        a.index for a in mol.atoms if mol.implicit_hydrogens(a.index) >= 1
    ]


def _copy(mol: Molecule) -> Molecule:
    out = Molecule()
    for atom in mol.atoms:
        out.add_atom(Atom(symbol=atom.symbol, charge=atom.charge, aromatic=atom.aromatic))
    for bond in mol.bonds:
        out.add_bond(bond.a, bond.b, bond.order, bond.aromatic)
    return out


def _random_molecule(rng: np.random.Generator) -> Molecule:
    """One drug-like molecule: 1-2 scaffolds, 1-4 substituents, optional linker."""
    scaffolds = _scaffolds()
    subs = _substituents()
    mol = _copy(scaffolds[rng.integers(len(scaffolds))])
    if rng.random() < 0.35:  # second ring joined by a short linker
        second = scaffolds[rng.integers(len(scaffolds))]
        sites = _spare_valence_sites(mol)
        site = int(sites[rng.integers(len(sites))])
        linker_len = int(rng.integers(0, 3))
        anchor = site
        for _ in range(linker_len):
            j = mol.add_atom(Atom("C"))
            mol.add_bond(anchor, j)
            anchor = j
        second_sites = _spare_valence_sites(second)
        attach = int(second_sites[rng.integers(len(second_sites))])
        offset = mol.n_atoms
        for atom in second.atoms:
            mol.add_atom(Atom(symbol=atom.symbol, charge=atom.charge, aromatic=atom.aromatic))
        for bond in second.bonds:
            mol.add_bond(bond.a + offset, bond.b + offset, bond.order, bond.aromatic)
        mol.add_bond(anchor, attach + offset, order=1)
    n_subs = int(rng.integers(1, 5))
    for _ in range(n_subs):
        sites = _spare_valence_sites(mol)
        if not sites:
            break
        site = int(sites[rng.integers(len(sites))])
        frag = subs[rng.integers(len(subs))]
        _merge(mol, site, frag)
    # occasional charged amine (drug-like at physiological pH)
    if rng.random() < 0.08:
        amines = [
            a.index
            for a in mol.atoms
            if a.symbol == "N" and not a.aromatic and mol.implicit_hydrogens(a.index) >= 1
        ]
        if amines:
            mol.atoms[int(amines[rng.integers(len(amines))])].charge = 1
    mol.validate()
    return mol


# ----------------------------------------------------------------- library


@dataclass(frozen=True)
class LibraryEntry:
    """One compound: stable id + SMILES."""

    compound_id: str
    smiles: str


@dataclass
class CompoundLibrary:
    """An ordered collection of compounds with lazy feature caches."""

    name: str
    entries: list[LibraryEntry]
    _mols: dict[int, Molecule] = field(default_factory=dict, repr=False)
    _fps: np.ndarray | None = field(default=None, repr=False)
    _descs: dict[int, Descriptors] = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> LibraryEntry:
        return self.entries[i]

    def __iter__(self) -> Iterator[LibraryEntry]:
        return iter(self.entries)

    def smiles(self) -> list[str]:
        """SMILES strings of every entry, in order."""
        return [e.smiles for e in self.entries]

    def molecule(self, i: int) -> Molecule:
        """Parsed molecule for entry ``i`` (cached)."""
        if i not in self._mols:
            self._mols[i] = parse_smiles(self.entries[i].smiles)
        return self._mols[i]

    def descriptors(self, i: int) -> Descriptors:
        """Descriptor bundle for entry ``i`` (cached)."""
        if i not in self._descs:
            self._descs[i] = compute_descriptors(self.molecule(i))
        return self._descs[i]

    def fingerprints(self, n_bits: int = 1024) -> np.ndarray:
        """Fingerprint matrix for the whole library (cached)."""
        if self._fps is None or self._fps.shape[1] != n_bits:
            self._fps = np.stack(
                [morgan_fingerprint(self.molecule(i), n_bits=n_bits) for i in range(len(self))]
            )
        return self._fps

    # ----------------------------------------------------------- shard I/O
    def to_shards(self, directory: str | Path, shard_size: int = 1000) -> list[Path]:
        """Write fixed-size NDJSON shards (the ML1 streaming format)."""
        paths = []
        for s, start in enumerate(range(0, len(self), shard_size)):
            chunk = self.entries[start : start + shard_size]
            path = shard_path(directory, self.name, s)
            write_shard(path, [(e.compound_id, e.smiles) for e in chunk])
            paths.append(path)
        return paths

    @classmethod
    def from_shards(cls, paths: Sequence[str | Path], name: str) -> "CompoundLibrary":
        """Rebuild a library from shards."""
        entries = []
        for path in paths:
            for compound_id, smiles in read_shard(path):
                entries.append(LibraryEntry(compound_id, smiles))
        return cls(name=name, entries=entries)


def _entry_stream(
    n: int,
    seed: int,
    name: str,
    shared_fraction: float,
    shared_seed: int | None,
) -> Iterator[LibraryEntry]:
    """Yield the library's entries one at a time, in generation order.

    This is the single generation core: :func:`generate_library` is
    ``list()`` of this stream and :func:`stream_library` chunks it into
    shards, so both paths draw from identical RNG streams and produce
    identical compounds for the same seed.  The uniqueness ``seen`` set
    holds one canonical SMILES per emitted compound — the only
    O(n) state the streaming path keeps (strings, not molecules).
    """
    if not 0.0 <= shared_fraction <= 1.0:
        raise ValueError("shared_fraction must be in [0, 1]")
    factory = RngFactory(seed, prefix=f"library/{name}")
    rng = factory.stream("generate")
    shared_rng = (
        RngFactory(shared_seed, prefix="library/shared").stream("generate")
        if shared_seed is not None
        else None
    )
    n_shared = int(round(n * shared_fraction)) if shared_rng is not None else 0

    seen: set[str] = set()
    emitted = 0

    def draw(
        generator: np.random.Generator, prefix: str, count: int
    ) -> Iterator[LibraryEntry]:
        nonlocal emitted
        attempts = 0
        produced = 0
        while produced < count:
            attempts += 1
            if attempts > 60 * count + 1000:
                raise RuntimeError("library generator failed to find enough unique molecules")
            mol = _random_molecule(generator)
            smi = canonical_smiles(mol)
            if smi in seen:
                continue
            seen.add(smi)
            entry = LibraryEntry(f"{prefix}{emitted:07d}", write_smiles(mol))
            emitted += 1
            produced += 1
            yield entry

    if shared_rng is not None and n_shared > 0:
        yield from draw(shared_rng, "SHR", n_shared)
    yield from draw(rng, name[:3].upper(), n - n_shared)


def generate_library(
    n: int,
    seed: int,
    name: str = "OZD",
    shared_fraction: float = 0.0,
    shared_seed: int | None = None,
) -> CompoundLibrary:
    """Generate ``n`` unique compounds.

    ``shared_fraction`` reserves a fraction of the library for compounds
    drawn from an auxiliary seeded stream — generating OZD and ORD with the
    same ``shared_seed`` produces the controlled overlap the paper observes
    (~1.5 M of 6.5 M) between its ZINC- and MCULE-derived subsets.
    """
    return CompoundLibrary(
        name=name,
        entries=list(_entry_stream(n, seed, name, shared_fraction, shared_seed)),
    )


def stream_library(
    n: int,
    seed: int,
    name: str = "OZD",
    shard_size: int = 1000,
    shared_fraction: float = 0.0,
    shared_seed: int | None = None,
) -> Iterator[list[LibraryEntry]]:
    """Generate the library as a stream of shards, without materializing it.

    Yields lists of at most ``shard_size`` entries.  The compounds — ids,
    SMILES, order — are *identical* to ``generate_library(n, seed, ...)``
    for the same arguments (both run the same generator core), so a
    streamed screen and a materialized screen see the same library.
    Peak memory is one shard plus the uniqueness set.
    """
    if shard_size <= 0:
        raise ValueError("shard_size must be positive")
    shard: list[LibraryEntry] = []
    for entry in _entry_stream(n, seed, name, shared_fraction, shared_seed):
        shard.append(entry)
        if len(shard) == shard_size:
            yield shard
            shard = []
    if shard:
        yield shard


def write_library_shards(
    directory: str | Path,
    n: int,
    seed: int,
    name: str = "OZD",
    shard_size: int = 1000,
    shared_fraction: float = 0.0,
    shared_seed: int | None = None,
) -> list[Path]:
    """Stream a seeded library straight to on-disk shards (bounded memory).

    The entry point for building screen inputs at scale: equivalent to
    ``generate_library(...).to_shards(...)`` but never holds more than
    one shard of entries.  Each shard is written atomically.
    """
    paths = []
    for s, shard in enumerate(
        stream_library(n, seed, name, shard_size, shared_fraction, shared_seed)
    ):
        path = shard_path(directory, name, s)
        write_shard(path, [(e.compound_id, e.smiles) for e in shard])
        paths.append(path)
    return paths


def library_overlap(a: CompoundLibrary, b: CompoundLibrary) -> int:
    """Number of compounds common to two libraries (by canonical SMILES)."""
    ca = {canonical_smiles(s) for s in a.smiles()}
    cb = {canonical_smiles(s) for s in b.smiles()}
    return len(ca & cb)
