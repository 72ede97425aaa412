"""Regenerate the frozen oracle constants embedded in the test suite.

Every value here is computed from first principles with mpmath, without
importing the package under test. Run ``python3 tests/make_oracles.py``
and paste the printed literals if a tolerance or a test point changes.
"""

import mpmath

mpmath.mp.dps = 50


def gauss(x, mu, sigma):
    return mpmath.exp(-((x - mu) ** 2) / (2 * sigma**2)) / (
        sigma * mpmath.sqrt(2 * mpmath.pi)
    )


def fourier_moment(k, m, mu, sigma):
    """m-th moment of x**m * g0(x) against exp(-2*pi*i*x*k), by quadrature."""
    def re_part(x):
        return float(x) ** m * gauss(x, mu, sigma) * mpmath.cos(2 * mpmath.pi * x * k)

    def im_part(x):
        return float(x) ** m * gauss(x, mu, sigma) * mpmath.sin(2 * mpmath.pi * x * k)

    lo, hi = mu - 40 * sigma, mu + 40 * sigma
    re = mpmath.quad(re_part, [lo, mu, hi])
    im = -mpmath.quad(im_part, [lo, mu, hi])
    return mpmath.mpc(re, im)


def show(label, value, digits=20):
    if isinstance(value, mpmath.mpc):
        print(f'{label} = complex({mpmath.nstr(value.real, digits)}, '
              f'{mpmath.nstr(value.imag, digits)})')
    else:
        print(f"{label} = {mpmath.nstr(mpmath.mpf(value), digits)}")


print("# gaussian")
show("G0_DENSITY", gauss(mpmath.mpf("0.3"), mpmath.mpf("0.1"), mpmath.mpf("0.7")))
show("FOURIER_M0", fourier_moment(1, 0, mpmath.mpf("0.2"), mpmath.mpf("0.8")))
show("FOURIER_M2", fourier_moment(mpmath.mpf("0.5"), 2, mpmath.mpf("-0.3"),
                                  mpmath.mpf("1.1")))
show("FOURIER_M3", fourier_moment(mpmath.mpf("0.25"), 3, mpmath.mpf("0.4"),
                                  mpmath.mpf("0.9")))
show("FOURIER_M4", fourier_moment(mpmath.mpf("-0.4"), 4, mpmath.mpf("0.15"),
                                  mpmath.mpf("1.3")))

# Aliasing of the plain mass (m = 0): sum over nonzero dual points of
# exp(-2*pi^2*sigma^2*k^2) * exp(-2*pi*i*mu*k); real by pairing +-k.
alias0 = 2 * mpmath.nsum(
    lambda k: mpmath.exp(-2 * mpmath.pi**2 * 1 * k**2) * mpmath.cos(2 * mpmath.pi * 0 * k),
    [1, mpmath.inf],
)
show("ALIAS0_SIGMA1", alias0)
alias2_s = mpmath.mpf("1.3")
alias2_mu = mpmath.mpf("0.25")


def dual_m2(k):
    # second-derivative closed form: (w^2 + sigma^2) * exp-factor, w = mu - 2*pi*i*sigma^2*k
    w = alias2_mu - 2j * mpmath.pi * alias2_s**2 * k
    g = mpmath.exp(-2 * mpmath.pi**2 * alias2_s**2 * k**2) * mpmath.exp(
        -2j * mpmath.pi * alias2_mu * k
    )
    return (w**2 + alias2_s**2) * g


alias2 = mpmath.nsum(lambda k: dual_m2(k) + dual_m2(-k), [1, mpmath.inf])
show("ALIAS2_SIGNED", alias2)

alias2_abs = 2 * mpmath.nsum(lambda k: abs(dual_m2(k)), [1, mpmath.inf])
show("ALIAS2_ABS", alias2_abs)

# Lattice normalization over one register period, q = 12. At sigma = 0.8
# the aliasing excess over 1 is visible in double precision.
sigma_b = mpmath.mpf("2.7573")
mu_b = mpmath.mpf("0.3")
N = 4096
norm = mpmath.fsum(gauss(n, mu_b, sigma_b) for n in range(-N // 2, N // 2))
show("NORM_Q12", norm, digits=30)
norm_sharp = mpmath.fsum(
    gauss(n, mpmath.mpf("0.3"), mpmath.mpf("0.8")) for n in range(-N // 2, N // 2)
)
show("NORM_Q12_SIGMA08", norm_sharp, digits=30)

# Two-sided lattice tail mass beyond +-K of the same Gaussian, and the
# erfc ceiling quoted for it.
K = 11
tail = mpmath.fsum(
    gauss(n, mu_b, sigma_b) for n in range(-N // 2, N // 2) if abs(n) > K
)
show("TAIL_K11", tail, digits=25)
show("TAIL_K11_ERFC", mpmath.erfc((K - mpmath.mpf("0.5"))
                                  / (mpmath.sqrt(2) * sigma_b)), digits=25)

print()
print("# special")
show("WM1_EXP_U1", mpmath.lambertw(-mpmath.exp(-2), -1))
show("WM1_Y01", mpmath.lambertw(mpmath.mpf("-0.1"), -1))
show("WM1_Y025", mpmath.lambertw(mpmath.mpf("-0.25"), -1))
show("WM1_U20", mpmath.lambertw(-mpmath.exp(-21), -1))

print()
print("# planner integers, straight from the printed formulas")
c_interp = 1 - 2 * mpmath.sqrt(2) / 3


def m0_of(eta, delta):
    return mpmath.ceil(16 / (3 * eta) * mpmath.log(3 / delta))


def m_outer(Delta, eps, delta, c=c_interp):
    return mpmath.ceil(
        8 * Delta**2 / (9 * eps**2 * (1 - c) ** 2) * mpmath.log(4 / delta)
    )


show("M0_ETA05_D001", m0_of(mpmath.mpf("0.5"), mpmath.mpf("0.01")), 10)
show("M0_ETA1_D001", m0_of(1, mpmath.mpf("0.01")), 10)
show("M_GAP01_EPS001_D01", m_outer(mpmath.mpf("0.1"), mpmath.mpf("0.01"),
                                   mpmath.mpf("0.1")), 10)
for alpha in (0, 1):
    Delta_a = mpmath.mpf("0.1") ** (1 - alpha) * mpmath.mpf("0.01") ** alpha
    M = m_outer(Delta_a, mpmath.mpf("0.01"), mpmath.mpf("0.01"))
    d1 = mpmath.mpf("0.01") / (4 * M)
    show(f"INTERP_A{alpha}_M", M, 10)
    show(f"INTERP_A{alpha}_M0", m0_of(mpmath.mpf("0.5"), d1), 10)

show("QPE_COEFF", 2 / (mpmath.sqrt(2) - 1) ** 2)
show("QPE_N_DELTA_EINV", mpmath.ceil(2 / (mpmath.sqrt(2) - 1) ** 2 * 1), 10)
show("QPE_N_DELTA_001", mpmath.ceil(2 / (mpmath.sqrt(2) - 1) ** 2
                                    * mpmath.log(100)), 10)
show("HOEFFDING_185", mpmath.ceil(mpmath.log(2 / mpmath.mpf("0.05"))
                                  / (2 * mpmath.mpf("0.1") ** 2)), 10)
show("QPE_SINGLE_SHOT", 1 - 1 / (2 * mpmath.sqrt(2)))

print()
print("# register distribution, direct DFT at q = 4")
q = 4
Nq = 16
sig_tilde = mpmath.mpf("0.08")
sigma_time = 1 / (4 * mpmath.pi * sig_tilde)
amps = [mpmath.sqrt(gauss(t - 8, 0, sigma_time)) for t in range(Nq)]
nrm = mpmath.sqrt(mpmath.fsum(a**2 for a in amps))
amps = [a / nrm for a in amps]
theta = mpmath.mpf("0.13")
for z in (2, 3, 8):
    b = mpmath.fsum(
        amps[t] * mpmath.expjpi(2 * t * (theta - mpmath.mpf(z) / Nq))
        for t in range(Nq)
    ) / mpmath.sqrt(Nq)
    show(f"DFT_Q4_Z{z}", abs(b) ** 2, digits=25)

print()
print("# closed-form register rows against the truncated window, direct DFT")
# (label, q, sigma_tilde of the plan, eigenphase): the acceptance plan, a
# q = 10 plan near the smallest sigma_bins a planner sweep reached, and a
# q = 16 plan. Doubles enter mpmath exactly, as the package sees them.
CLOSED_FORM_CASES = (
    ("q12", 12, 0.0006730539066309329, -0.2),
    ("q10", 10, 0.0017293621083082865, 0.1234567),
    ("q16", 16, 4.6382995328986464e-05, -0.3712345),
)
for label, q, sig_tilde, theta in CLOSED_FORM_CASES:
    Nq = 1 << q
    sigma_bins = mpmath.mpf(sig_tilde) * Nq
    sigma_time = 1 / (4 * mpmath.pi * mpmath.mpf(sig_tilde))
    # gaussian_window: sqrt of the Gaussian on t = 0..N-1, centred at N/2,
    # normalised over the register.
    amps = [mpmath.sqrt(gauss(t - Nq // 2, 0, sigma_time)) for t in range(Nq)]
    nrm2 = mpmath.fsum(a**2 for a in amps)
    center = mpmath.mpf(theta) * Nq
    base = int(mpmath.floor(center))
    reach = int(mpmath.ceil(4 * sigma_bins))
    offsets = list(range(-reach, reach + 2)) + [
        int(mpmath.nint(10 * sigma_bins)),
        -int(mpmath.nint(20 * sigma_bins)),
    ]
    rows = {}
    for d in offsets:
        z = (base + d) % Nq
        w = mpmath.expjpi(2 * (mpmath.mpf(theta) - mpmath.mpf(z) / Nq))
        b = mpmath.mpf(0)
        for a in reversed(amps):  # Horner: sum_t a_t w**t
            b = b * w + a
        rows[z] = abs(b) ** 2 / (nrm2 * Nq)
    print(f'"{label}": ({q}, {sig_tilde!r}, {theta!r}, {{')
    for z in sorted(rows):
        print(f"    {z}: {mpmath.nstr(rows[z], 20)},")
    print("}),")
