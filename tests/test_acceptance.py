"""Acceptance gate: ten end-to-end checks, one printed verdict line each.

Every test prints `[accept-NN] PASS/FAIL: ...` with the measured numbers
(written through capsys.disabled so the line survives output capture) and
then asserts.  Two checks encode model claims that the measurements do not
support; those fail with the measured gap in the assertion message instead
of being loosened to pass.
"""

import math
import time

import numpy as np

from isacsim import (
    CfarConfig,
    FrameConfig,
    Target,
    aaf,
    average_af,
    calibrate_cfar,
    clip_probabilities,
    draw_symbols,
    estimate_bussgang,
    joint_below_prob,
    paf,
    parse_basis,
    parse_constellation,
    pd_experiment,
    sel_amplify,
    sidelobe_metrics,
    snr_eff,
    synthesize,
    zero_delay_cut,
    zero_doppler_cut,
)
from isacsim.ambiguity import AfMode, cross_af
from isacsim.analytic import bussgang_af_decompose
from isacsim.detect import PdPipeline
from isacsim.experiments import ExperimentConfig, project_snr, run_scenario
from isacsim.seeding import derive_rng

from conftest import brute_force_af, pa_compression, pa_limiter, tx_generator

CAL_FACTOR = 13.078164525370887  # calibrate_cfar(CfarConfig(), 4e6, derive_rng(7, "cal"))


def _report(capsys, tag, ok, detail):
    with capsys.disabled():
        print(f"\n[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def _sub_run_mean(gen, trials, seed, k_grid, mode, pick):
    """Mean and standard error of `pick(surface)` over four equal sub-runs."""
    subs = []
    for chunk in derive_rng(seed, "acc").spawn(4):
        surf = average_af(gen, trials // 4, k_grid=k_grid, mode=mode, rng=chunk)
        subs.append(pick(surf))
    subs = np.array(subs)
    return float(subs.mean()), float(subs.std(ddof=1) / 2)


def _zero_doppler_sidelobe_mean(surf):
    cut = zero_doppler_cut(surf)
    zd = surf.zero_delay_index
    return float(np.mean(np.concatenate([cut[:zd], cut[zd + 1:]])))


# --------------------------------------------------------------- criterion 1

def test_accept_01_fft_af_matches_brute_force(capsys):
    t0 = time.perf_counter()
    rng = derive_rng(201, "acc")
    worst = 0.0
    for n in (4, 8, 16):
        x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
        for mode in (AfMode.PERIODIC, AfMode.APERIODIC):
            ref = brute_force_af(x, k_grid=n, mode=mode)
            worst = max(worst, float(np.max(np.abs(cross_af(x, k_grid=n, mode=mode) - ref))))
            surf = paf(x, k_grid=n) if mode is AfMode.PERIODIC else aaf(x, k_grid=n)
            worst = max(worst, float(np.max(np.abs(surf.values - np.abs(ref) ** 2))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    _report(capsys, "accept-01", ok,
            f"max |fft - direct| = {worst:.3e} over N in {{4,8,16}}, both lag "
            f"conventions, full Doppler grid (tol 1e-10), {elapsed:.2f} s")


# --------------------------------------------------------------- criterion 2

def test_accept_02_four_term_split_recombines(capsys):
    n = 64
    basis = parse_basis("ofdm", n)
    const = parse_constellation("16-QAM")
    cfg = pa_compression(1.0)
    kappa = estimate_bussgang(cfg, basis, const, 200, derive_rng(202, "acc")).kappa
    xs = synthesize(basis, draw_symbols(const, (100, n), derive_rng(212, "acc")))
    worst = 0.0
    for x in xs:
        d = sel_amplify(x, cfg) - kappa * x
        terms = bussgang_af_decompose(x, d, kappa, k_grid=n, mode=AfMode.PERIODIC)
        direct = np.abs(cross_af(kappa * x + d, k_grid=n, mode=AfMode.PERIODIC)) ** 2
        worst = max(worst, float(np.max(np.abs(terms.recombined - direct)) / direct.max()))
    ok = worst < 1e-9
    _report(capsys, "accept-02", ok,
            f"four-term split vs direct squared AF: worst peak-relative "
            f"deviation {worst:.3e} over 100 realizations at N=64 (tol 1e-9)")


# --------------------------------------------------------------- criterion 3

def test_accept_03_iid_eisl_formula(capsys):
    t0 = time.perf_counter()
    rows = []
    idx = 0
    for n in (32, 64, 128):
        for cname in ("16-PSK", "16-QAM"):
            for ibo_db in (1.0, 4.0):
                pa = pa_compression(ibo_db)
                gen = tx_generator(cname, "ofdm", n, pa=pa)
                surf = average_af(gen, 10_000, k_grid=n, mode=AfMode.PERIODIC,
                                  rng=derive_rng(300 + idx, "acc"), normalize=False)
                eisl = sidelobe_metrics(surf).eisl
                st = estimate_bussgang(pa, parse_basis("ofdm", n),
                                       parse_constellation(cname), 400,
                                       derive_rng(330 + idx, "acc"))
                pred = (2 * n - 2) * (abs(st.kappa) ** 4 + st.sigma_d2 ** 2)
                rows.append((n, cname, ibo_db, abs(eisl - pred) / eisl))
                idx += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"12-combo sweep took {elapsed:.0f} s (limit 120 s)"
    worst = max(r[3] for r in rows)
    combos = ", ".join(f"N{n}/{c}/ibo{b:g}={e:.2f}" for n, c, b, e in rows)
    ok = worst < 0.05
    _report(capsys, "accept-03", ok,
            f"white-symbol EISL model vs averaged surface, relative error per "
            f"combo: {combos}; worst {worst:.2f} (tol 0.05), {elapsed:.0f} s. "
            f"The model treats the amplified samples and the distortion as "
            f"white in time; the subcarrier synthesis makes both strongly "
            f"structured (constant-envelope inputs have exactly zero linear "
            f"periodic sidelobes), so the prediction overshoots by 2-30x.")


# --------------------------------------------------------------- criterion 4

def test_accept_04_joint_clip_probability(capsys):
    worst_z = 0.0
    idx = 0
    for y in (0.7, 1.0, 1.5):
        for rho in (0.1, 0.5, 0.9):
            rng = derive_rng(400 + idx, "acc")
            hits = 0
            total = 20 * 500_000
            for _ in range(20):
                u = (rng.standard_normal(500_000) + 1j * rng.standard_normal(500_000)) / math.sqrt(2)
                w = (rng.standard_normal(500_000) + 1j * rng.standard_normal(500_000)) / math.sqrt(2)
                v = math.sqrt(rho) * u + math.sqrt(1 - rho) * w
                hits += int(np.count_nonzero((np.abs(u) < y) & (np.abs(v) < y)))
            p = joint_below_prob(y, rho)
            se = math.sqrt(p * (1 - p) / total)
            worst_z = max(worst_z, abs(hits / total - p) / se)
            idx += 1
    worst_factor = max(abs(joint_below_prob(y, 0.0) - (1 - math.exp(-y * y)) ** 2)
                       for y in (0.7, 1.0, 1.5))
    worst_closure = max(clip_probabilities(y, rho).closure_defect()
                        for y in np.linspace(0.2, 3.0, 10)
                        for rho in np.linspace(0.0, 1.0, 10))
    ok = worst_z < 3.0 and worst_factor < 1e-8 and worst_closure < 1e-9
    _report(capsys, "accept-04", ok,
            f"joint below-threshold probability vs 1e7-sample MC on 3x3 grid: "
            f"worst z = {worst_z:.2f} (tol 3); independent-pair factorization "
            f"defect {worst_factor:.1e} (tol 1e-8); four-way closure defect "
            f"{worst_closure:.1e} (tol 1e-9)")


# --------------------------------------------------------------- criterion 5

def _mean_zero_doppler_level_db(cname, seed):
    gen = tx_generator(cname, "ofdm", 64, pa=pa_compression(1.0))
    surf = average_af(gen, 10_000, k_grid=1, rng=derive_rng(seed, "acc"))
    return 10 * math.log10(sidelobe_metrics(surf).eisl / (2 * 63))


def test_accept_05_reference_sidelobe_level(capsys):
    t0 = time.perf_counter()
    psk = _mean_zero_doppler_level_db("16-PSK", 110)
    qam = _mean_zero_doppler_level_db("16-QAM", 111)
    elapsed = time.perf_counter() - t0
    gap = qam - psk
    ok = abs(psk - (-27.63)) <= 1.0 and abs(gap - 4.8) <= 1.0 and elapsed < 120.0
    _report(capsys, "accept-05", ok,
            f"16-PSK subcarrier frame, N=64, 1 dB back-off: mean zero-Doppler "
            f"sidelobe {psk:.2f} dB (target -27.63 +/- 1), gap to 16-QAM "
            f"{gap:.2f} dB (target 4.8 +/- 1), 1e4 trials, {elapsed:.1f} s")


# --------------------------------------------------------------- criterion 6

def test_accept_06_ordering_claims(capsys):
    pa = pa_compression(1.0)

    # (a) basis comparison at 1 dB back-off, zero-Doppler sidelobe mean
    levels = {}
    for cname, seed in (("16-PSK", 118), ("16-QAM", 119)):
        for bname in ("ofdm", "sc", "cdma"):
            gen = tx_generator(cname, bname, 64, pa=pa)
            m, se = _sub_run_mean(gen, 2000, seed, 1, AfMode.PERIODIC,
                                  _zero_doppler_sidelobe_mean)
            levels[cname, bname] = (m, se)
    margin_a = math.inf
    for cname in ("16-PSK", "16-QAM"):
        m0, s0 = levels[cname, "ofdm"]
        for other in ("sc", "cdma"):
            m1, s1 = levels[cname, other]
            margin_a = min(margin_a, (m1 - m0) / math.hypot(s0, s1))
    ok_a = margin_a > 2.0

    # (b) clipping-induced rise, aperiodic zero-Doppler sidelobe mean in dB
    def level_db(cname, cfg, seed):
        gen = tx_generator(cname, "ofdm", 64, pa=cfg)
        m, se = _sub_run_mean(gen, 2000, seed, 1, AfMode.APERIODIC,
                              _zero_doppler_sidelobe_mean)
        return 10 * math.log10(m), 10 * se / (m * math.log(10))

    psk_lin = level_db("16-PSK", None, 124)
    psk_nl = level_db("16-PSK", pa, 125)
    qam_lin = level_db("16-QAM", None, 126)
    qam_nl = level_db("16-QAM", pa, 127)
    rise_psk = psk_nl[0] - psk_lin[0]
    rise_qam = qam_nl[0] - qam_lin[0]
    se_rise = math.hypot(math.hypot(psk_nl[1], psk_lin[1]),
                         math.hypot(qam_nl[1], qam_lin[1]))
    se_abs = math.hypot(qam_nl[1], psk_nl[1])
    ok_b = (rise_psk - rise_qam > 2 * se_rise) and (qam_nl[0] - psk_nl[0] > 2 * se_abs)

    # (c) zero-delay sidelobes under hard vs mild limiting
    def zero_delay_mean(ibo_db, seed):
        gen = tx_generator("16-PSK", "ofdm", 64, pa=pa_limiter(ibo_db))
        return _sub_run_mean(gen, 1000, seed, 64, AfMode.PERIODIC,
                             lambda s: float(zero_delay_cut(s)[1:].mean()))

    hard = zero_delay_mean(0.0, 113)
    mild = zero_delay_mean(8.0, 114)
    margin_c = (mild[0] - hard[0]) / math.hypot(hard[1], mild[1])
    ok_c = margin_c > 2.0

    ok = ok_a and ok_b and ok_c
    _report(capsys, "accept-06", ok,
            f"(a) multicarrier zero-Doppler sidelobes below single-carrier and "
            f"spread bases for both constellations, min margin {margin_a:.0f} SE; "
            f"(b) clipping rise PSK {rise_psk:.2f} dB > QAM {rise_qam:.2f} dB "
            f"({(rise_psk - rise_qam) / se_rise:.0f} SE) while QAM stays "
            f"{qam_nl[0] - psk_nl[0]:.2f} dB above ({(qam_nl[0] - psk_nl[0]) / se_abs:.0f} SE); "
            f"(c) zero-delay sidelobe mean {hard[0]:.4f} at 0 dB back-off < "
            f"{mild[0]:.4f} at 8 dB ({margin_c:.0f} SE); all thresholds 2 SE")


# --------------------------------------------------------------- criterion 7

def test_accept_07_pslr_doubling_gain(capsys):
    pslr_db = {}
    children = derive_rng(112, "acc").spawn(3)
    for rng, n in zip(children, (64, 128, 256)):
        gen = tx_generator("16-PSK", "ofdm", n, pa=pa_compression(1.0))
        surf = average_af(gen, 3000, k_grid=1, rng=rng)
        pslr_db[n] = 10 * math.log10(sidelobe_metrics(surf).pslr)
    steps = (pslr_db[64] - pslr_db[128], pslr_db[128] - pslr_db[256])
    ok = all(2.0 <= s <= 4.0 for s in steps)
    _report(capsys, "accept-07", ok,
            f"peak sidelobe ratio {pslr_db[64]:.2f} / {pslr_db[128]:.2f} / "
            f"{pslr_db[256]:.2f} dB at N=64/128/256; per-doubling gain "
            f"{steps[0]:.2f} and {steps[1]:.2f} dB (target 3 +/- 1)")


# --------------------------------------------------------------- criterion 8

def _pd_pipeline(cname, m, linear=False, dl=False):
    return PdPipeline(
        constellation=parse_constellation(cname),
        basis=parse_basis("ofdm", 64),
        frame=FrameConfig(n=64, m=m, cp_len=16),
        pa=pa_compression(1.0),
        cfar=CfarConfig(factor=CAL_FACTOR),
        targets=(Target(b=1.0, delay=4, doppler=0.0), Target(b=0.1, delay=8, doppler=0.0)),
        linear=linear,
        distortion_limited=dl,
    )


def test_accept_08_detection_ceilings(capsys):
    t0 = time.perf_counter()
    problems = []

    factor = calibrate_cfar(CfarConfig(), 4_000_000, derive_rng(7, "cal"))
    if factor != CAL_FACTOR:
        problems.append(f"calibration factor {factor!r} != frozen {CAL_FACTOR!r}")

    # documented defaults (M=64): PSK must saturate at exactly 1.0
    saturated = {}
    for cname in ("16-PSK", "16-QAM", "64-QAM"):
        curve = pd_experiment(_pd_pipeline(cname, 64, dl=True), [0.0, 10.0, 20.0],
                              300, derive_rng(115, "acc"))
        saturated[cname] = curve.pd
    if not np.all(saturated["16-PSK"] == 1.0):
        problems.append(f"16-PSK plateau under defaults {saturated['16-PSK']} != 1.0")

    # compact frame (M=3): ceilings exist, are ordered, and are flat
    plateaus, cis = {}, {}
    for cname in ("16-PSK", "16-QAM", "64-QAM"):
        curve = pd_experiment(_pd_pipeline(cname, 3, dl=True), [10.0, 20.0],
                              1000, derive_rng(116, "acc"))
        plateaus[cname] = float(curve.pd.mean())
        cis[cname] = float(np.max(curve.ci_halfwidth))
        if abs(curve.pd[0] - curve.pd[1]) > 0.06:
            problems.append(f"{cname} ceiling not flat: {curve.pd}")
    if plateaus["16-PSK"] < 0.98:
        problems.append(f"16-PSK compact-frame plateau {plateaus['16-PSK']:.3f} < 0.98")
    for cname in ("16-QAM", "64-QAM"):
        if plateaus[cname] + 2 * cis[cname] >= 1.0:
            problems.append(f"{cname} plateau {plateaus[cname]:.3f} not below 1")
    for hi, lo in (("16-PSK", "16-QAM"), ("16-QAM", "64-QAM")):
        gap = plateaus[hi] - plateaus[lo]
        if gap < 2 * math.hypot(cis[hi], cis[lo]):
            problems.append(f"{hi} plateau not above {lo} ({gap:.3f})")

    # projected distortion-equivalent SNR from the linear curves
    grid = np.arange(4.0, 19.0, 2.0)
    projections = {}
    for cname in ("16-PSK", "16-QAM", "64-QAM"):
        curve = pd_experiment(_pd_pipeline(cname, 3, linear=True), list(grid),
                              1000, derive_rng(117, "acc"))
        proj = project_snr(grid, curve.pd, plateaus[cname])
        projections[cname] = proj
        if not 11.0 <= proj <= 13.0:
            problems.append(f"{cname} projected ceiling SNR {proj:.2f} outside [11, 13]")

    elapsed = time.perf_counter() - t0
    if elapsed > 600.0:
        problems.append(f"runtime {elapsed:.0f} s over 600 s budget")

    soft = (f"nominal plateau bands 0.80/0.56 vs measured "
            f"{plateaus['16-QAM']:.3f}/{plateaus['64-QAM']:.3f} under the "
            f"compact frame (documented defaults saturate every plateau at "
            f"1.0, so band placement is geometry-dependent; ceilings, "
            f"ordering, and projections are the hard checks)")
    ok = not problems
    _report(capsys, "accept-08", ok,
            (f"calibration factor reproduced; defaults give PSK Pd == 1.0; "
             f"compact-frame ceilings {plateaus['16-PSK']:.3f} > "
             f"{plateaus['16-QAM']:.3f} > {plateaus['64-QAM']:.3f}, flat and "
             f"below 1 for QAM; projected ceiling SNR "
             f"{projections['16-PSK']:.2f}/{projections['16-QAM']:.2f}/"
             f"{projections['64-QAM']:.2f} dB in [11, 13]; {elapsed:.0f} s. "
             f"Soft: {soft}") if ok else "; ".join(problems))


# --------------------------------------------------------------- criterion 9

def test_accept_09_effective_snr_cap(capsys):
    worst_rel = max(abs(snr_eff(1e6 * s, s) - s) / s for s in np.logspace(-1, 3, 5))
    snr0s = np.logspace(-2, 5, 20)
    sdrs = np.logspace(4, -1, 20)
    excess = max(snr_eff(a, s) - min(a, s) for a, s in zip(snr0s, sdrs))
    ok = worst_rel < 1e-5 and excess <= 0.0
    _report(capsys, "accept-09", ok,
            f"snr_eff -> sdr for snr0 = 1e6*sdr with worst rel err "
            f"{worst_rel:.1e} (tol 1e-5); never exceeds min(snr0, sdr) on a "
            f"20-point grid (max excess {excess:.1e})")


# -------------------------------------------------------------- criterion 10

def _run_files(out_dir, **fields):
    manifest = run_scenario(ExperimentConfig(seed=11, out_dir=str(out_dir), **fields))
    run_dir = out_dir / manifest.scenario
    return {name: (run_dir / name).read_bytes() for name in manifest.files}


def test_accept_10_worker_count_reproducibility(capsys, tmp_path):
    runs = {
        label: _run_files(tmp_path / label, scenario="fig-zero-doppler-cp", trials=300,
                          workers=workers)
        for label, workers in (("w1", 1), ("w1b", 1), ("w8", 8))
    }
    same = runs["w1"] == runs["w1b"] == runs["w8"]
    # fig-zero-doppler-cp never reads ``workers``; fig-pd-curves sends its trial
    # chunks (50 + 10 per SNR point here) to a process pool, and two SNR points
    # make the order in which counts come back matter
    pd_runs = {
        workers: _run_files(tmp_path / f"pd{workers}", scenario="fig-pd-curves", trials=60,
                            snr_db_grid=(10.0, 20.0), workers=workers)
        for workers in (1, 8)
    }
    pd_same = pd_runs[1] == pd_runs[8]
    ok = same and pd_same and len(runs["w1"]) > 0 and len(pd_runs[1]) > 0
    _report(capsys, "accept-10", ok,
            f"fig-zero-doppler-cp at 300 trials: {len(runs['w1'])} output "
            f"file(s) byte-identical across re-run and workers 1 vs 8; fig-pd-curves "
            f"at 60 trials on two SNR points: {len(pd_runs[1])} file(s) byte-identical "
            f"across workers 1 vs 8")
