"""Write the two-flip Z/2 marker pair of size N used by the smoke steps.

    python marker_pair.py N

Both systems carry label 1 at N - 1 and 0 elsewhere, and skew 1 at one
point: the target tN.json at 0, the source sN.json at N // 2.  The files
go to the working directory.
"""

import json
import sys

N = int(sys.argv[1])


def system(flip):
    return {"size": N, "labels": [1 if x == N - 1 else 0 for x in range(N)],
            "group": {"type": "cyclic", "order": 2},
            "skew": [1 if x == flip else 0 for x in range(N)]}


for name, flip in (("t%d.json" % N, 0), ("s%d.json" % N, N // 2)):
    with open(name, "w") as fh:
        json.dump(system(flip), fh)
