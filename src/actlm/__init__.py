"""Latent-action language modeling: a numpy research stack with its own
reverse-mode autodiff, a small pre-norm transformer, discrete latent action
learning, multi-stage training, Q-guided tree search, and binary
checkpoints.

Importing the package pins glibc's malloc thresholds: allocations of up
to 32 MiB come from the heap, and up to 64 MiB of freed heap stays with the
process. glibc's own thresholds move up to the size of each mmap-backed
block freed, so whether a validation sweep or a frozen-base encode
re-faults its temporaries (about 17,800 page faults per fill of a 256x64
sweep) would depend on the largest array the process had freed before.
Without glibc's `mallopt` nothing changes."""

import ctypes

__version__ = "0.1.0"

# glibc's malloc.h; the mmap threshold is glibc's 64-bit ceiling, the trim
# threshold twice it, as glibc's own dynamic rule sets it.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _pin_malloc_thresholds() -> None:
    """Setting only the trim threshold would freeze the mmap threshold at
    its 128 KiB start, and every larger temporary would be a fresh mmap."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_pin_malloc_thresholds()
