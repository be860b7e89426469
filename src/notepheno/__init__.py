"""notepheno: phenotype free-text clinical notes.

A multi-width convolutional text classifier with pretrained word embeddings,
n-gram and concept-dictionary baselines, confusion-matrix metrics, and
salient-phrase explanations, orchestrated by a reproducible experiment CLI.
"""

import os

# A threaded BLAS rounds some cells of a matrix product differently from one
# thread, so the trained CNN's bytes would depend on the host's CPU count. The
# BLAS reads these when numpy first loads it; a caller who set one keeps it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
