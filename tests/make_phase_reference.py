"""Regenerate tests/phase_reference.py, the 60-digit reference populations
that test_phase_accuracy checks the analytic route against:

    python tests/make_phase_reference.py > tests/phase_reference.py

Each row is a figure row (row 1 at chi = 0, row 2 at chi = 0.2) moved to
a large sector.  Its generator K is built from the decimal inputs in
mpmath at 60 digits and propagated as V exp(-i Lambda t) V^T x0 from the
entry state (0, 1, 0).  Needs mpmath; the tests only import the printed
literals, rounded to doubles.
"""

import mpmath as mp

mp.mp.dps = 60

OMEGA_CAVITY = "0.2"
OMEGA_LEVELS = ("0.3", "0.4", "0.5")
TAU_MAX = 50
SAMPLES = 11
# (chi, sector_n, g1, g2, omega_e)
ROWS = (
    ("0", 10**12, "0.04", "0.06", "0.04"),
    ("0.2", 10**4, "0.06", "0.08", "0.04"),
    ("0.2", 10**6, "0.06", "0.08", "0.04"),
    ("0.2", 10**8, "0.06", "0.08", "0.04"),
)


def populations(chi, n, g1, g2, omega_e):
    chi, g1, g2, omega_e, wc = map(mp.mpf, (chi, g1, g2, omega_e, OMEGA_CAVITY))
    w1, w2, w3 = map(mp.mpf, OMEGA_LEVELS)

    def f2(m):
        return 1 + chi * m * m

    s = wc * ((n + 1) * f2(n + 1) - n * f2(n)) - (w2 - w1)
    h = s - (w3 - w2)
    scale = mp.sqrt(f2(n + 1) * (n + 1))
    v1, v2 = g1 * scale, g2 * scale
    lam, vec = mp.eigsy(mp.matrix([[0, v2, v1], [v2, -s, omega_e], [v1, omega_e, -h]]))
    rows = []
    for i in range(SAMPLES):
        t = mp.mpf(TAU_MAX) * i / (SAMPLES - 1) / wc
        x = [sum(vec[k, j] * mp.expj(-lam[j] * t) * vec[1, j] for j in range(3)) for k in range(3)]
        rows.append([float(abs(c) ** 2) for c in x])
    return rows


if __name__ == "__main__":
    print('"""Generated by tests/make_phase_reference.py; do not edit."""')
    print()
    print(f"OMEGA_CAVITY = {OMEGA_CAVITY}")
    print(f"OMEGA_LEVELS = [{', '.join(OMEGA_LEVELS)}]")
    print(f"TAU_MAX = {TAU_MAX}")
    print(f"SAMPLES = {SAMPLES}")
    print("# (chi, sector_n, g1, g2, omega_e) -> populations [P1, P2, P3] at each tau sample")
    print("REFERENCE = {")
    for chi, n, g1, g2, omega_e in ROWS:
        print(f"    ({chi}, {n}, {g1}, {g2}, {omega_e}): [")
        for p in populations(chi, n, g1, g2, omega_e):
            print(f"        [{', '.join(repr(v) for v in p)}],")
        print("    ],")
    print("}")
