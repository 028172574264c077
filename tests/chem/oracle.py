"""Test-side references for ML1 depiction: the per-molecule layout and
rasterizer that shipped in ``repro.chem.depict`` up to PR 15.

:func:`layout_2d`, :func:`_draw_line` and :func:`depict` are the
parent's bodies verbatim — ~25 NumPy calls per layout iteration on one
molecule's ``(n, n, 2)`` arrays, one ``(n_atoms, size, size)`` splat
stack and one ``linspace`` per bond.  The production batch kernel must
reproduce them bit for bit; ``test_depict_identity.py`` checks that over
generated libraries and hand cases.  :func:`featurize_batch` is the
parent's per-record loop over them.

The molecular-graph functions below (:func:`rings`, :func:`is_connected`,
:func:`_target_distances`) are the ``networkx`` bodies ``repro.chem.mol``
and ``repro.chem.embed3d`` shipped before ``repro.chem.graph`` replaced
them, over the old ``Molecule.to_networkx`` (:func:`to_networkx`);
``test_graph_identity.py`` holds ``repro.chem.graph`` to them.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.chem import embed3d
from repro.chem.descriptors import partial_charges
from repro.chem.embed3d import BOND_LENGTH
from repro.chem.mol import Molecule
from repro.chem.smiles import parse_smiles

N_CHANNELS = 7


def layout_2d(mol: Molecule, iterations: int = 120) -> np.ndarray:
    """Deterministic force-directed 2D coordinates, unit bond length.

    Fruchterman–Reingold-style: spring attraction along bonds, soft
    repulsion between all atom pairs, cooled step size.  Initialized from a
    deterministic angular arrangement (no RNG) so the same molecule always
    renders identically — a requirement for cacheable featurization.
    """
    n = mol.n_atoms
    if n == 1:
        return np.zeros((1, 2))
    # deterministic init: atoms on a spiral ordered by index
    theta = np.arange(n) * 2.39996323  # golden angle
    r = 0.5 * np.sqrt(np.arange(n) + 1.0)
    pos = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)

    edges = np.array([(b.a, b.b) for b in mol.bonds], dtype=np.int64)
    step = 0.15
    for it in range(iterations):
        disp = np.zeros_like(pos)
        # pairwise repulsion ~ 1/d
        diff = pos[:, None, :] - pos[None, :, :]
        dist2 = (diff**2).sum(-1) + 1e-6
        np.fill_diagonal(dist2, np.inf)
        rep = diff / dist2[..., None] * 0.35
        disp += rep.sum(axis=1)
        # spring attraction toward unit bond length
        if len(edges):
            d = pos[edges[:, 0]] - pos[edges[:, 1]]
            length = np.linalg.norm(d, axis=1, keepdims=True) + 1e-9
            force = (length - 1.0) * d / length
            np.add.at(disp, edges[:, 0], -force)
            np.add.at(disp, edges[:, 1], force)
        norm = np.linalg.norm(disp, axis=1, keepdims=True) + 1e-9
        pos += disp / norm * np.minimum(norm, step)
        step *= 0.985
    pos -= pos.mean(axis=0)
    return pos


def _draw_line(img: np.ndarray, p0: np.ndarray, p1: np.ndarray, value: float) -> None:
    """Accumulate an anti-aliased-ish line into a single-channel image."""
    steps = max(2, int(np.linalg.norm(p1 - p0) * 2) + 1)
    ts = np.linspace(0.0, 1.0, steps)
    pts = p0[None, :] * (1 - ts[:, None]) + p1[None, :] * ts[:, None]
    size = img.shape[0]
    ij = np.round(pts).astype(int)
    ok = (ij[:, 0] >= 0) & (ij[:, 0] < size) & (ij[:, 1] >= 0) & (ij[:, 1] < size)
    img[ij[ok, 1], ij[ok, 0]] = np.maximum(img[ij[ok, 1], ij[ok, 0]], value)


def depict(mol: Molecule, size: int = 32) -> np.ndarray:
    """Rasterize a molecule into a ``(N_CHANNELS, size, size)`` float image.

    Atom channels use a small Gaussian splat; the bond channel draws the
    skeleton with intensity proportional to bond order.  Output is in
    [0, 1] and suitable as direct CNN input.
    """
    coords = layout_2d(mol)
    span = max(1.0, np.abs(coords).max() * 1.15)
    scale = (size / 2 - 2) / span
    pix = coords * scale + size / 2

    img = np.zeros((N_CHANNELS, size, size), dtype=np.float32)
    charges = partial_charges(mol)

    yy, xx = np.mgrid[0:size, 0:size]
    sigma2 = max(1.0, (scale * 0.35)) ** 2
    # all atom splats at once: (n_atoms, size, size); channel membership
    # reduces with np.maximum, which is order-independent, so the result
    # is identical to splatting atom by atom
    cx = pix[:, 0][:, None, None]
    cy = pix[:, 1][:, None, None]
    splats = np.exp(
        -((xx[None] - cx) ** 2 + (yy[None] - cy) ** 2) / (2 * sigma2)
    ).astype(np.float32)
    symbols = np.array([a.symbol for a in mol.atoms])
    channel = np.select(
        [symbols == "C", symbols == "N", symbols == "O"], [0, 1, 2], default=3
    )
    for ch in range(4):
        in_ch = channel == ch
        if in_ch.any():
            img[ch] = np.maximum.reduce(splats[in_ch])
    aromatic = np.array([a.aromatic for a in mol.atoms], dtype=bool)
    if aromatic.any():
        img[4] = np.maximum.reduce(splats[aromatic])
    # float32 coefficients: a python-float scalar would multiply in
    # float32 too (weak promotion), so this matches per-atom splatting
    coef = (0.5 + 0.5 * np.clip(charges, -1, 1)).astype(np.float32)
    img[5] = np.maximum.reduce(coef[:, None, None] * splats)

    for bond in mol.bonds:
        value = min(1.0, bond.valence() / 3.0 + 0.3)
        _draw_line(img[6], pix[bond.a], pix[bond.b], value)
    return img


def featurize_batch(smiles_list, size=24, out=None):
    """The parent's ``featurize_batch``: one ``depict`` per record."""
    if out is None:
        out = np.empty((len(smiles_list), N_CHANNELS, size, size), dtype=np.float32)
    if out.shape[0] != len(smiles_list):
        raise ValueError(
            f"out has room for {out.shape[0]} records, got {len(smiles_list)}"
        )
    for i, smiles in enumerate(smiles_list):
        out[i] = depict(parse_smiles(smiles), size=size)
    return out


def to_networkx(mol: Molecule) -> nx.Graph:
    """Export to networkx (atom/bond attributes preserved)."""
    g = nx.Graph()
    for atom in mol.atoms:
        g.add_node(
            atom.index,
            symbol=atom.symbol,
            charge=atom.charge,
            aromatic=atom.aromatic,
        )
    for bond in mol.bonds:
        g.add_edge(bond.a, bond.b, order=bond.order, aromatic=bond.aromatic)
    return g


def rings(self: Molecule) -> list[list[int]]:
    """Cycle basis of the molecular graph (list of atom rings)."""
    if self.n_atoms == 0:
        return []
    return [list(c) for c in nx.cycle_basis(to_networkx(self))]


def is_connected(self: Molecule) -> bool:
    """Whether the molecular graph is a single fragment."""
    if self.n_atoms <= 1:
        return True
    return nx.is_connected(to_networkx(self))


def _target_distances(mol: Molecule) -> np.ndarray:
    """Pairwise target distances from shortest-path topology.

    Bonded pairs sit at ``BOND_LENGTH``; longer paths scale sub-linearly
    (chains coil) with a floor so non-bonded atoms keep steric spacing.
    """
    g = to_networkx(mol)
    n = mol.n_atoms
    d = np.zeros((n, n))
    sp = dict(nx.all_pairs_shortest_path_length(g))
    for i in range(n):
        for j, hops in sp[i].items():
            if hops == 0:
                continue
            d[i, j] = BOND_LENGTH * hops**0.82
    return d


def install(monkeypatch) -> None:
    """Swap the reference featurization and graph code in for production.

    Everything in ``repro.surrogate`` that turns SMILES into images —
    training, in-memory scoring and the streamed shard path — then goes
    through this module's per-molecule code, and every ring list,
    connectivity test and conformer target through ``networkx``.
    """
    from repro.surrogate import featurize, infer, train

    monkeypatch.setattr(Molecule, "rings", rings)
    monkeypatch.setattr(Molecule, "is_connected", is_connected)
    monkeypatch.setattr(embed3d, "_target_distances", _target_distances)

    for module in (featurize, infer, train):
        monkeypatch.setattr(module, "featurize_batch", featurize_batch)
