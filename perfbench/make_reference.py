"""Recompute the stored exact log P(A_k) values in reference.json.

    python3 perfbench/make_reference.py

For k >= 3 there is no closed form, so the checks read log P(A_k) from
reference.json.  Each value is log rho_N from the no-k-gap recurrence run
in mpmath at 50 digits, with N large enough that rho_N / P(A_k) - 1 is
below 1e-45 (reference.recurrence_terms).  The same recurrence is first
compared with the k = 1 and k = 2 closed forms on the sweep grid.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import mpmath as mp  # noqa: E402

from perfbench import reference as ref, workloads  # noqa: E402
from perfbench.checks import REFERENCE_FILE  # noqa: E402

AGREE = mp.mpf(10) ** -40


def main() -> int:
    for k in (1, 2):
        for s in workloads.SWEEP_S:
            gap = abs(ref.log_pak_closed(k, s) - ref.log_pak_recurrence(k, s))
            if gap > AGREE:
                print(f"k={k} s={s}: recurrence and closed form differ by {gap}", file=sys.stderr)
                return 1
    points = [(k, s) for k in workloads.SWEEP_K if k >= 3 for s in workloads.SWEEP_S]
    points += [(k, workloads.PAK_S) for k in workloads.PAK_K if k >= 3]
    rows = []
    for k, s in points:
        t = time.perf_counter()
        value = ref.log_pak_recurrence(k, s)
        rows.append({"k": k, "s": s, "terms": ref.recurrence_terms(k, s),
                     "value": mp.nstr(value, ref.DPS - 5)})
        print(f"k={k} s={s}: {rows[-1]['value']} ({time.perf_counter() - t:.1f} s)")
    with open(REFERENCE_FILE, "w") as fh:
        json.dump({"digits": ref.DPS - 5, "log_pak": rows}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
