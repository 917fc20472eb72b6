"""Fixed reference work that tracks how fast the host runs right now.

run.py times this process between passes and divides every timing by it,
so that a host whose speed drifts with its neighbours' load reads the same
from one run to the next. It imports nothing from slabgreen, so a change to
the package cannot move it. Its mix follows the package's: interpreter
start, `import numpy`, scalar complex numpy calls like those of
`slab_green.green`, small vector operations like the quadrature's, and a
plain Python loop like the CLI's. About 0.4 s on a 2-vCPU Xeon (KVM) host.
"""

import numpy as np

acc = 0j
x = np.complex128(0.3 + 0.1j)
for i in range(30000):
    z = np.exp(1j * x * (i * 1e-4)) * np.sqrt(x + i * 1e-5)
    acc += z.real * z.imag
grid = np.linspace(0.0, 1.0, 20000)
for i in range(200):
    acc += float(np.sum(np.sin(grid * i)))
total = 0
for i in range(300000):
    total += i * i
if not np.isfinite(acc) or total != 8999955000050000:
    raise SystemExit("calibration arithmetic went wrong")
