"""Property tests of the covariant twirl's two forms: Kraus operators and the Choi matrix.

A channel built from Kraus operators is twirled operator by operator; the
same channel given only as its Choi matrix is twirled by the Kronecker
sandwich.  Both must give the same channel, and the twirl must be an
idempotent projection onto CPTP covariant channels.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qclock import (
    Hamiltonian,
    QuantumChannel,
    covariant_twirl,
    is_covariant,
    ladder_hamiltonian,
    random_channel,
    validate_cptp,
)

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def channel_dims(draw):
    """(din, dout, rank) with din != dout, rank 1-3 and rank * dout >= din (an isometry exists)."""
    din = draw(st.integers(1, 5))
    dout = draw(st.integers(1, 5).filter(lambda d: d != din))
    rank = draw(st.integers(1, 3).filter(lambda r: r * dout >= din))
    return din, dout, rank


def lattice_hamiltonian(dim: int, seed: int) -> Hamiltonian:
    """Integer spectrum in -2..2 (repeats allowed) in a Haar-random basis."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    levels = rng.integers(-2, 3, size=dim).astype(float)
    return Hamiltonian((u * levels) @ u.conj().T)


def both_forms(din, dout, rank, seed):
    kraus_form = random_channel(din, dout, rank, seed)
    return kraus_form, QuantumChannel(din, dout, kraus_form.choi)


@PROPERTY_SETTINGS
@given(channel_dims(), st.sampled_from([0.5, 1.0, 3.0]), st.integers(0, 2**32 - 1))
def test_kraus_twirl_equals_choi_twirl_bit_for_bit_on_ladders(dims, quantum, seed):
    din, dout, rank = dims
    h_in, h_out = ladder_hamiltonian(din, quantum), ladder_hamiltonian(dout, quantum)
    kraus_form, choi_form = both_forms(din, dout, rank, seed)
    by_kraus = covariant_twirl(kraus_form, h_in, h_out)
    by_choi = covariant_twirl(choi_form, h_in, h_out)
    assert by_choi.kraus is None
    if rank == 1:
        # OpenBLAS rounds the one-term Gram product of the raw Choi matrix
        # differently from the longer sum over masked operators
        assert np.abs(by_kraus.choi - by_choi.choi).max() <= 1e-15
    else:
        assert np.array_equal(by_kraus.choi, by_choi.choi)


@PROPERTY_SETTINGS
@given(channel_dims(), st.integers(0, 2**32 - 1))
def test_kraus_twirl_equals_choi_twirl_on_lattice_spectra_in_a_random_basis(dims, seed):
    din, dout, rank = dims
    h_in, h_out = lattice_hamiltonian(din, seed), lattice_hamiltonian(dout, seed + 1)
    kraus_form, choi_form = both_forms(din, dout, rank, seed)
    by_kraus = covariant_twirl(kraus_form, h_in, h_out).choi
    by_choi = covariant_twirl(choi_form, h_in, h_out).choi
    assert np.abs(by_kraus - by_choi).max() <= 1e-15


@PROPERTY_SETTINGS
@given(channel_dims(), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
def test_twirl_is_an_idempotent_projection_onto_cptp_covariant_channels(dims, ladder, kraus, seed):
    din, dout, rank = dims
    if ladder:
        h_in, h_out = ladder_hamiltonian(din, 1.0), ladder_hamiltonian(dout, 1.0)
    else:
        h_in, h_out = lattice_hamiltonian(din, seed), lattice_hamiltonian(dout, seed + 1)
    channel = both_forms(din, dout, rank, seed)[0 if kraus else 1]
    twirled = covariant_twirl(channel, h_in, h_out)
    assert validate_cptp(twirled).ok
    assert is_covariant(twirled, h_in, h_out).is_covariant
    again = covariant_twirl(twirled, h_in, h_out)
    assert np.abs(again.choi - twirled.choi).max() <= 1e-12
