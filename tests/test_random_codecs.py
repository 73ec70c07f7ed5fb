"""Codecs of random parameters against the scalar oracles.

A draw is any (n, p0_num, f_max) with n <= 10 that `CoderParams` accepts.
Its build either raises one of the two errors a build may raise, or gives
a codec whose every stage matches its oracle in tests/conftest.py, and
whose keyed round trip over a random stream matches the step-by-step
encrypt and decrypt.  Machines of more than `FULL_STATES` full states are
skipped: the scalar oracles would take seconds each on them.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hfsac import (
    CoderParams,
    KeySchedule,
    NonEmittingCycleError,
    StateExplosionError,
    attach_tables,
    build_full_fsm,
    decrypt,
    encrypt,
    reduce_machine,
)
from conftest import (
    build_state_code,
    heuristic_weights,
    rand_bits,
    reference_decrypt,
    reference_encrypt,
    reference_full_fsm,
    reference_index,
    reference_reduce,
)

FULL_STATES = 3000

coder_params = st.integers(3, 10).flatmap(
    lambda n: st.builds(CoderParams, st.just(n), st.integers(1, (1 << n) - 1), st.integers(0, 15))
)


@settings(max_examples=100, deadline=None)
@given(coder_params, st.integers(0, 2**64 - 1), st.integers(0, 256), st.integers(0, 400))
def test_random_parameters_match_the_oracles(params, seed, q, length):
    try:
        machine = build_full_fsm(params)
    except StateExplosionError:
        return
    assume(len(machine.low) <= FULL_STATES)
    assert machine == reference_full_fsm(params)
    try:
        rm = reduce_machine(machine)
    except NonEmittingCycleError:
        with pytest.raises(NonEmittingCycleError):
            reference_reduce(machine)
        return
    assert rm == reference_reduce(machine)
    codec = attach_tables(rm)
    for s, table in enumerate(codec.tables):
        assert table.codewords == tuple(build_state_code(heuristic_weights(rm, s)))
    for table in (rm.inputs, codec.outputs):
        assert np.array_equal(table.index, reference_index(table))
    bits, ks = rand_bits(seed, length, 0.5), KeySchedule(seed, q)
    cipher, _ = encrypt(bits, codec, ks)
    assert cipher == reference_encrypt(codec, bits, ks)
    assert decrypt(cipher, codec, ks, length) == bits
    assert reference_decrypt(codec, cipher, ks, length) == bits
