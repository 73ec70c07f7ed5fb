"""Finite-state arithmetic coding with per-state Huffman outputs and keyed
state jumps / codeword swaps, plus the statistical analysis toolkit."""

from .analysis import (
    MetricsReport,
    adjacent_pixel_corr,
    analyze_image,
    bits_to_image,
    block_frequency,
    compression_rate,
    compression_rates,
    histogram,
    histogram_chi_square,
    monobit,
    npcr,
    pearson_corr,
    runs,
    shannon_entropy_binary,
    state_visit_histogram,
    uaci,
)
from .bitio import BitSource, Bits, BitWriter, pack_bits, unpack_bits
from .coder import (
    CoderParams,
    FullMachine,
    FullState,
    StateExplosionError,
    TruncatedCodeError,
    ac_decode_stream,
    ac_encode_parts,
    ac_encode_stream,
    build_full_fsm,
    renormalize,
    split_interval,
)
from .container import CipherContainer, ContainerError, parse, serialize
from .crypto import (
    KeyFormatError,
    KeySchedule,
    SplitMix64,
    StepRecord,
    StepTrace,
    TruncatedStreamError,
    WrongKeyError,
    bernoulli_bits,
    decrypt,
    decrypt_bits,
    decrypt_stream,
    draw_bernoulli,
    draw_uniform,
    encrypt,
    encrypt_bits,
    encrypt_stream,
    keyspace_bits,
    seed_from_hex,
    seed_to_hex,
    substream_init,
)
from .huffman import (
    CorruptStreamError,
    HfsacCodec,
    StateCodeTable,
    attach_tables,
    build_codec,
    hfac_decode,
    hfac_encode,
    swap_codeword,
)
from .pgm import GrayImage, PgmError, parse_pgm, pgm_bytes, read_pgm, write_pgm
from .prefix import KernelBuildError
from .reducer import (
    NonEmittingCycleError,
    ReducedMachine,
    ReducedTransition,
    ValidationReport,
    fsac_encode,
    fsac_parse,
    reduce_machine,
    validate_reduced,
)

__version__ = "0.1.0"
