import numpy as np
import pytest

from condlat import catalog
from condlat.frames import RelationalFrame


@pytest.fixture
def b4():
    return catalog.entry("material-B4").lattice


@pytest.fixture
def quad_frame():
    return catalog.frame_entry("quad-two-way").frame


def names_at(lattice, witness):
    return tuple(lattice.names[i] for i in witness)


class TamperedFrame(RelationalFrame):
    """A copy of frame whose scalar arrow, kernel, or both flip points of
    the answer at the given (A, B) cells."""

    def __init__(self, frame, cells, scalar=True, kernel=True):
        super().__init__(frame.names, [frame.predecessors(x) for x in range(frame.m)])
        self.cells, self.scalar, self.kernel = dict(cells), scalar, kernel

    def arrow(self, A, B):
        return super().arrow(A, B) ^ (self.cells.get((A, B), 0) if self.scalar else 0)

    def arrows(self, A, B):
        out = super().arrows(A, B)
        if self.kernel:
            out = out.copy()
            A, B = np.broadcast_to(A, out.shape), np.broadcast_to(B, out.shape)
            for (a, b), flip in self.cells.items():
                at = (A == self.to_words(a)).all(-1) & (B == self.to_words(b)).all(-1)
                out[at] ^= self.to_words(flip)
        return out
