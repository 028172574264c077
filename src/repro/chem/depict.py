"""2D depiction: molecular graphs → coordinates → raster images.

Replaces RDKit's ``mol2D`` drawing (§6.1.1).  The surrogate's featurization
contract is "SMILES in, 2D image out"; we honour it with a deterministic
force-directed 2D layout followed by rasterization into a multi-channel
float image.  Channels encode what a chemist reads off a depiction — heavy
atoms, heteroatoms, aromaticity, charge and bond skeleton — so a small CNN
can learn docking-score structure from them.

One batch kernel does all of it.  A median molecule has 13 atoms, so laid
out alone every NumPy call is call overhead; :func:`depict_batch` instead
concatenates the atoms, the n² atom pairs and the bonds of up to
``_CHUNK`` molecules into flat component-major arrays (``pos[0]`` is
every x, ``pos[1]`` every y) and runs the layout iterations and the
rasterization once per chunk through ``out=`` scratch that lives for the
call.  :func:`layout_2d` and :func:`depict` are the batch of one.

A molecule's image depends on nothing but the molecule — not on its
batch-mates, its position or the chunk cut — and is bit-identical to the
per-molecule reference in ``tests/chem/oracle.py``.  That rests on the
exactness facts written next to the code that uses them.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from repro.chem.descriptors import partial_charges
from repro.chem.mol import Molecule

__all__ = ["layout_2d", "depict", "depict_batch", "N_CHANNELS"]

#: image channels: [carbon, N, O, halogen/S/P, aromatic, charge, bonds]
N_CHANNELS = 7

#: molecules laid out and rasterized per kernel pass: scratch (and so RSS)
#: is bounded by this, not by the length of the batch
_CHUNK = 64


def _flatten(mols: Sequence[Molecule]) -> tuple[np.ndarray, ...]:
    """Atom counts, first-atom offsets, each atom's molecule and
    batch-global bond endpoints."""
    n_atoms = np.array([m.n_atoms for m in mols], dtype=np.intp)
    first = np.cumsum(n_atoms) - n_atoms
    mol = np.repeat(np.arange(len(mols)), n_atoms)
    offsets = first.tolist()
    bond_a = np.array(
        [off + b.a for m, off in zip(mols, offsets) for b in m.bonds], dtype=np.intp
    )
    bond_b = np.array(
        [off + b.b for m, off in zip(mols, offsets) for b in m.bonds], dtype=np.intp
    )
    return n_atoms, first, mol, bond_a, bond_b


def _layout(
    n_atoms: np.ndarray,
    first: np.ndarray,
    mol: np.ndarray,
    bond_a: np.ndarray,
    bond_b: np.ndarray,
    iterations: int,
) -> np.ndarray:
    """Force-directed coordinates of every atom of a batch, ``(2, atoms)``.

    Fruchterman–Reingold-style: spring attraction along bonds, soft
    repulsion between all atom pairs of a molecule, cooled step size.
    Atoms of different molecules never interact; they only share the
    arrays.
    """
    n_mols, total = len(n_atoms), len(mol)
    base = first[mol]

    # deterministic init: each molecule's atoms on a spiral by local index
    local = (np.arange(total) - base).astype(np.float64)
    theta = local * 2.39996323  # golden angle
    radius = 0.5 * np.sqrt(local + 1.0)
    pos = np.empty((2, total))
    np.multiply(radius, np.cos(theta), out=pos[0])
    np.multiply(radius, np.sin(theta), out=pos[1])

    # all n² ordered pairs (i, j) of each molecule, i-major / j-minor
    row = n_atoms[mol]
    pair_i = np.repeat(np.arange(total), row)
    n_pairs = len(pair_i)
    pair_j = np.arange(n_pairs) - np.repeat(np.cumsum(row) - row - base, row)
    # the reference adds 1e-6 to every squared distance and then sets the
    # diagonal to inf; 0 + inf is that inf, so one add does both
    soft = np.where(pair_i == pair_j, np.inf, 1e-6)

    # Exactness fact 1: ``rep.sum(axis=1)`` on a C-order (n, n, 2) array
    # adds rep[i, 0], rep[i, 1], … in j order, and the reference then adds
    # -force[e] at bond_a[e] for every bond in order, then +force[e] at
    # bond_b[e] (``np.add.at``).  ``np.bincount`` accumulates its weights
    # strictly in input order, so one bincount over
    # [pairs | a-side | b-side] reproduces that association atom by atom;
    # the diagonal stays in as the reference's exact diff / inf = 0 terms.
    n_bonds = len(bond_a)
    scatter = np.concatenate([pair_i, bond_a, bond_b])
    push = np.empty((2, n_pairs + 2 * n_bonds))
    repulsion = push[:, :n_pairs]
    pull_a = push[:, n_pairs : n_pairs + n_bonds]
    pull_b = push[:, n_pairs + n_bonds :]

    at_i = np.empty((2, n_pairs))
    at_j = np.empty((2, n_pairs))
    dist2 = np.empty(n_pairs)
    at_a = np.empty((2, n_bonds))
    at_b = np.empty((2, n_bonds))
    length = np.empty(n_bonds)
    stretch = np.empty(n_bonds)
    disp = np.empty((2, total))
    squares = np.empty((2, total))
    norm = np.empty(total)

    step = 0.15
    for _ in range(iterations):
        # pairwise repulsion ~ 1/d.  Exactness fact 2: a sum (or
        # ``linalg.norm``) over the length-2 coordinate axis is x*x + y*y.
        np.take(pos, pair_i, axis=1, out=at_i, mode="clip")
        np.take(pos, pair_j, axis=1, out=at_j, mode="clip")
        np.subtract(at_i, at_j, out=at_i)
        np.multiply(at_i, at_i, out=at_j)
        np.add(at_j[0], at_j[1], out=dist2)
        np.add(dist2, soft, out=dist2)
        np.divide(at_i, dist2, out=repulsion)
        np.multiply(repulsion, 0.35, out=repulsion)
        # spring attraction toward unit bond length
        np.take(pos, bond_a, axis=1, out=at_a, mode="clip")
        np.take(pos, bond_b, axis=1, out=at_b, mode="clip")
        np.subtract(at_a, at_b, out=at_a)
        np.multiply(at_a, at_a, out=at_b)
        np.add(at_b[0], at_b[1], out=length)
        np.sqrt(length, out=length)
        np.add(length, 1e-9, out=length)
        np.subtract(length, 1.0, out=stretch)
        np.multiply(stretch, at_a, out=at_a)
        np.divide(at_a, length, out=pull_b)
        np.negative(pull_b, out=pull_a)
        disp[0] = np.bincount(scatter, push[0], total)
        disp[1] = np.bincount(scatter, push[1], total)
        # move each atom along its displacement, at most ``step`` far
        np.multiply(disp, disp, out=squares)
        np.add(squares[0], squares[1], out=norm)
        np.sqrt(norm, out=norm)
        np.add(norm, 1e-9, out=norm)
        np.divide(disp, norm, out=disp)
        np.minimum(norm, step, out=norm)
        np.multiply(disp, norm, out=disp)
        np.add(pos, disp, out=pos)
        step *= 0.985

    # Exactness fact 3: ``pos.mean(axis=0)`` on a C-order (n, 2) array is
    # the sequential sum over atoms divided by n — again a bincount.
    for axis in pos:
        axis -= (np.bincount(mol, axis, n_mols) / n_atoms)[mol]
    return pos


def layout_2d(mol: Molecule, iterations: int = 120) -> np.ndarray:
    """Deterministic force-directed 2D coordinates, unit bond length.

    Initialized from a deterministic angular arrangement (no RNG) so the
    same molecule always renders identically — a requirement for
    cacheable featurization.  The batch of one through :func:`_layout`.
    """
    return np.ascontiguousarray(_layout(*_flatten([mol]), iterations).T)


def _depict_chunk(mols: Sequence[Molecule], out: np.ndarray) -> None:
    """Lay out and rasterize ``mols`` into ``out[k]``, one image each."""
    size = out.shape[-1]
    n_atoms, first, mol, bond_a, bond_b = _flatten(mols)
    n_mols, total = len(mols), len(mol)
    coords = _layout(n_atoms, first, mol, bond_a, bond_b, 120)

    # pixel frame of each molecule.  Every reduction below is a maximum,
    # which is order-independent, so ``reduceat`` / ``maximum.at`` over the
    # batch equals the reference's per-molecule reductions (exactness fact 4).
    reach = np.maximum.reduceat(np.abs(coords).max(axis=0), first)
    scale = (size / 2 - 2) / np.maximum(1.0, reach * 1.15)
    pix = coords * scale[mol] + size / 2
    # scalar ``**`` is libm pow, which is not always x*x to the last bit
    # (the array power is): square the way the reference does, on scalars
    sigma2 = np.array([max(1.0, s * 0.35) ** 2 for s in scale])

    # all atom splats of the chunk at once: (atoms, size, size).  The
    # reference's -(dx² + dy²) / (2σ²) is (dx² + dy²) / -(2σ²) exactly.
    grid = np.arange(size)
    dx2 = (grid - pix[0][:, None]) ** 2
    dy2 = (grid - pix[1][:, None]) ** 2
    blob = np.empty((total, size, size))
    np.add(dx2[:, None, :], dy2[:, :, None], out=blob)
    np.divide(blob, -(2 * sigma2)[mol][:, None, None], out=blob)
    np.exp(blob, out=blob)
    splats = blob.reshape(total, size * size).astype(np.float32)
    del blob

    # a contiguous image block of our own, for the flat row and pixel
    # indexing below; ``out`` may be any strided view
    img = np.zeros((n_mols, N_CHANNELS, size * size), dtype=np.float32)
    rows = img.reshape(n_mols * N_CHANNELS, size * size)
    # channels 0-4: every atom is a member of its element channel, aromatic
    # atoms also of channel 4; one gather sorted by target row, one reduceat
    element_channel = {"C": 0, "N": 1, "O": 2}
    kind = np.array(
        [element_channel.get(a.symbol, 3) for m in mols for a in m.atoms], dtype=np.intp
    )
    aromatic = np.flatnonzero([a.aromatic for m in mols for a in m.atoms])
    member = np.concatenate([np.arange(total), aromatic])
    target = np.concatenate(
        [mol * N_CHANNELS + kind, mol[aromatic] * N_CHANNELS + 4]
    )
    order = np.argsort(target, kind="stable")
    target = target[order]
    starts = np.flatnonzero(np.diff(target, prepend=-1))
    rows[target[starts]] = np.maximum.reduceat(
        splats.take(member[order], axis=0), starts, axis=0
    )
    # channel 5: charge-weighted splats.  float32 coefficients: a
    # python-float scalar would multiply in float32 too (weak promotion)
    charges = np.concatenate([partial_charges(m) for m in mols])
    coef = (0.5 + 0.5 * np.clip(charges, -1, 1)).astype(np.float32)
    np.multiply(coef[:, None], splats, out=splats)
    img[:, 5] = np.maximum.reduceat(splats, first, axis=0)

    # channel 6: the bond skeleton, intensity proportional to bond order.
    # The reference's 1-D ``linalg.norm`` is sqrt(x.dot(x)), a BLAS dot
    # that may fuse its multiply-add; (E, 1, 2) @ (E, 2, 1) dispatches to
    # the same dot per bond.
    p0, p1 = pix[:, bond_a], pix[:, bond_b]
    span = np.ascontiguousarray((p1 - p0).T)
    run = np.sqrt(np.matmul(span[:, None, :], span[:, :, None]).reshape(-1))
    steps = np.maximum(2, (run * 2).astype(np.intp) + 1)
    # Exactness fact 5: ``np.linspace(0, 1, k)`` is arange(k) * (1 / (k-1))
    # with the last element forced to 1.0
    ends = np.cumsum(steps)
    bond = np.repeat(np.arange(len(steps)), steps)
    ts = (np.arange(len(bond)) - (ends - steps)[bond]) * (1.0 / (steps - 1))[bond]
    ts[ends - 1] = 1.0
    ij = np.round(p0[:, bond] * (1 - ts) + p1[:, bond] * ts).astype(np.intp)
    ok = ((ij >= 0) & (ij < size)).all(axis=0)
    value = np.array(
        [min(1.0, b.valence() / 3.0 + 0.3) for m in mols for b in m.bonds],
        dtype=np.float32,
    )
    pixel = ((mol[bond_a][bond] * N_CHANNELS + 6) * size + ij[1]) * size + ij[0]
    np.maximum.at(img.reshape(-1), pixel[ok], value[bond[ok]])

    out[...] = img.reshape(n_mols, N_CHANNELS, size, size)


def depict_batch(mols: Iterable[Molecule], out: np.ndarray) -> np.ndarray:
    """Rasterize ``len(out)`` molecules into ``out``, ``(n, N_CHANNELS, size, size)``.

    Atom channels use a small Gaussian splat; the bond channel draws the
    skeleton with intensity proportional to bond order.  Output is in
    [0, 1] and suitable as direct CNN input.  ``mols`` is consumed a
    chunk at a time (it may be a generator that parses as it goes), and
    ``out`` may be any float32 view — e.g. a slice of a persistent batch
    buffer; it is returned filled.
    """
    todo = iter(mols)
    done = 0
    while done < len(out):
        chunk = list(islice(todo, min(_CHUNK, len(out) - done)))
        if not chunk:
            raise ValueError(f"out has room for {len(out)} molecules, got {done}")
        _depict_chunk(chunk, out[done : done + len(chunk)])
        done += len(chunk)
    return out


def depict(mol: Molecule, size: int = 32) -> np.ndarray:
    """Rasterize one molecule into a ``(N_CHANNELS, size, size)`` float image.

    The batch of one through :func:`depict_batch`.
    """
    return depict_batch([mol], np.empty((1, N_CHANNELS, size, size), dtype=np.float32))[0]
