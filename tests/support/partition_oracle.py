"""The three-mask partition and the concatenating top-k cut, as
``src/repro/kernels/partition.py`` had them until c838fc2: the oracle
the count / take kernels and the rebuilt ``partition3`` / ``topk_cut``
are held to, part by part."""

import numpy as np


def partition3(arr, lo, hi):
    below = arr < lo
    mid = (arr >= lo) & (arr <= hi)
    return arr[below], arr[mid], arr[~below & ~mid]


def topk_cut(arr, threshold, keep_eq):
    below = arr < threshold
    return np.concatenate([arr[below], arr[arr == threshold][:keep_eq]])
