"""Acceptance gate: one test and one pass/fail line per shipped guarantee.

Every test evaluates its full set of clauses before asserting, so a
failure message always carries the complete measurements.  Two
guarantees cannot hold as stated and fail red by design, with the
numbers that show why: the two-stream control (criterion 6) has no
unstable mode on this domain, and two clauses of the inequality suite
(criterion 7) are violated by the mid-time field hump at this data
amplitude.  The analysis lives in the repo notes; nothing here is
weakened to force a pass.

Reruns are expensive for the big evolution runs, so criterion 10
recomputes every criterion core once more from scratch and compares
SHA-256 digests of all produced arrays.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from vpdamp.equilibria import gaussian, two_stream, zero
from vpdamp.linear import (DensityTrace, contour_parameters, cosine_initial_hat,
                           fit_decay, resolvent_kernel, solve_via_kernel,
                           source_from_initial, volterra_solve)
from vpdamp.nonlinear import RunConfig, closure_residual, echo_experiment, run
from vpdamp.norms import check_contraction, check_F_le_sqrtG, check_FG1, gen_F, radius
from vpdamp.penrose import landau_root, strip_width
from vpdamp.spectral import Grid

from norm_oracles import standard_params

EQ = gaussian()
# frozen Newton-oracle references
GAUSSIAN_ROOT_K1 = -0.8513304555998186 + 2.045904868820431j
TWO_STREAM3_ROOT_K1 = -1.132855951617341 + 1.192856453780191j

_cache: dict = {}
_digests: dict = {}


def _once(cache, name, builder):
    if name not in cache:
        cache[name] = builder(cache)
    return cache[name]


def _digest(payload: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(payload):
        h.update(key.encode())
        val = payload[key]
        if isinstance(val, np.ndarray):
            arr = np.ascontiguousarray(val)
        else:
            arr = np.asarray(val, dtype=np.float64)
        h.update(str(arr.dtype).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _density_at(output, t: float) -> dict:
    i = int(np.argmin(np.abs(output.times - t)))
    assert abs(output.times[i] - t) < 1e-9 * max(1.0, t)
    return {k: tr.values[i] for k, tr in output.traces.items()}


# ---------------------------------------------------------------------------
# criterion cores; each returns a payload of every array/scalar it measures


def _c1(cache):
    grid = Grid(k_max=8, V=8.0, N_v=1024)
    modes = tuple((k, 1e-3, 0.0) for k in range(1, 9))
    out = run(RunConfig(eq=zero(), grid=grid, dt=5e-2, t_final=20.0, modes=modes,
                        quadratic_term=False, profile=EQ))
    payload = {"times": out.times}
    rel = {}
    for k in range(1, 9):
        exact = 5e-4 * np.exp(-((k * out.times) ** 2) / 2.0)
        rel[k] = float(np.max(np.abs(out.traces[k].values - exact)) / 5e-4)
        payload[f"trace_{k}"] = out.traces[k].values
        payload[f"rel_{k}"] = rel[k]
    payload["worst"] = max(rel.values())
    return payload


def _c2(cache):
    payload = {}
    errs = {}
    for k in range(1, 5):
        hat0 = cosine_initial_hat(EQ, ((k, 1e-3, 0.0),))
        times = 1e-3 * np.arange(20001)
        S = source_from_initial(hat0, k, times)
        vol = volterra_solve(EQ, k, lambda ts, k=k: source_from_initial(hat0, k, ts),
                             1e-3, 20.0)
        th, Om, nq = contour_parameters(EQ, k, 20.0)
        ker = resolvent_kernel(EQ, k, th, Om, nq, times)
        via = solve_via_kernel(DensityTrace(k=k, times=times, values=S), ker)
        errs[k] = float(np.max(np.abs(vol.values - via.values)))
        payload[f"volterra_{k}"] = vol.values
        payload[f"kernel_route_{k}"] = via.values
        payload[f"err_{k}"] = errs[k]
    # one mode suffices to read off the quadrature order
    hat0 = cosine_initial_hat(EQ, ((1, 1e-3, 0.0),))
    times2 = 5e-4 * np.arange(40001)
    S2 = source_from_initial(hat0, 1, times2)
    vol2 = volterra_solve(EQ, 1, lambda ts: source_from_initial(hat0, 1, ts),
                          5e-4, 20.0)
    th, Om, nq = contour_parameters(EQ, 1, 20.0)
    via2 = solve_via_kernel(DensityTrace(k=1, times=times2, values=S2),
                            resolvent_kernel(EQ, 1, th, Om, nq, times2))
    err_half = float(np.max(np.abs(vol2.values - via2.values)))
    payload["err_half"] = err_half
    payload["max_err"] = max(errs.values())
    payload["ratio"] = errs[1] / err_half
    return payload


def _c3(cache):
    theta1 = strip_width(EQ)
    dt = 2e-3
    times = dt * np.arange(10001)  # [0, 20]
    payload = {"theta1": theta1}
    for k in range(1, 5):
        th, Om, nq = contour_parameters(EQ, k, 20.0)
        ker = resolvent_kernel(EQ, k, th, Om, nq, times)
        kap = times * np.asarray(EQ.mu_hat(k * times), float)
        K = ker.values
        full = np.convolve(kap, K)[: times.size]
        conv = dt * (full - 0.5 * kap * K[0] - 0.5 * kap[0] * K)
        payload[f"kernel_{k}"] = K
        payload[f"C_fit_{k}"] = ker.C_fit
        payload[f"theta_fit_{k}"] = ker.theta_fit
        payload[f"identity_residual_{k}"] = float(np.max(np.abs(K + kap + conv)))
    return payload


def _c4(cache):
    hat0 = cosine_initial_hat(EQ, ((1, 1e-3, 0.0),))
    tr = volterra_solve(EQ, 1, lambda ts: source_from_initial(hat0, 1, ts),
                        1e-3, 30.0)
    fit = fit_decay(tr, gamma=1.0)
    return {"trace": tr.values, "rate": fit.rate, "n_used": fit.n_used,
            "ref": -GAUSSIAN_ROOT_K1.real}


RUN5_GRID = Grid(k_max=8, V=8.0, N_v=2048)
RUN5_EPS = 1e-3


def _run5(cache):
    def build(_):
        return run(RunConfig(eq=EQ, grid=RUN5_GRID, dt=5e-3, t_final=30.0,
                             modes=((1, RUN5_EPS, 0.0),),
                             trace_stride=10, snapshot_stride=100))
    return _once(cache, "run5_out", build)


def _run5_half(cache):
    def build(_):
        return run(RunConfig(eq=EQ, grid=RUN5_GRID, dt=2.5e-3, t_final=30.0,
                             modes=((1, RUN5_EPS, 0.0),),
                             trace_stride=20, snapshot_stride=200))
    return _once(cache, "run5_half_out", build)


def _c5(cache):
    out = _run5(cache)
    payload = {"times": out.times}
    for k in range(1, 9):
        payload[f"trace_{k}"] = out.traces[k].values
    for name in ("mass_drift", "l2_drift", "reality_drift", "dealias"):
        payload[f"cons_{name}"] = out.conservation[name]
    for i, snap in enumerate(out.snapshots):
        payload[f"snapshot_{i}"] = snap.data
    payload["sup_field_final"] = max(
        float(abs(tr.field_values[-1])) for tr in out.traces.values())
    payload["mass_drift_max"] = float(np.max(out.conservation["mass_drift"]))
    payload["l2_drift_max"] = float(np.max(out.conservation["l2_drift"]))

    # dense-snapshot sub-run to T = 10 for the model-consistency residual; each
    # snapshot is hashed as it is taken, in step order, and none is kept
    h = hashlib.sha256()
    dense = run(RunConfig(eq=EQ, grid=RUN5_GRID, dt=5e-3, t_final=10.0,
                          modes=((1, RUN5_EPS, 0.0),),
                          trace_stride=1, snapshot_stride=1),
                lambda snap: h.update(snap.data.tobytes()))
    payload["closure"] = closure_residual(dense)
    payload["dense_trace_1"] = dense.traces[1].values
    payload["dense_snapshot_hash"] = int.from_bytes(h.digest()[:8], "big")
    return payload


def _c6(cache):
    eq = two_stream(3.0)
    root, residual = landau_root(eq, 1)
    out = run(RunConfig(eq=eq, grid=Grid(k_max=2, V=11.0, N_v=256), dt=5e-3,
                        t_final=10.0, modes=((1, 1e-6, 0.0),), trace_stride=1))
    E1 = np.abs(out.traces[1].field_values)
    window = (E1 >= 1e-5) & (E1 <= 1e-3)
    rate = None
    if int(window.sum()) >= 8:
        t_w = out.times[window]
        coef = np.polyfit(t_w, np.log(E1[window]), 1)
        rate = float(coef[0])
    return {"root": np.array([root.real, root.imag]), "root_residual": residual,
            "E1": E1, "n_window": int(window.sum()),
            "E1_max": float(E1.max()),
            "rate": math.nan if rate is None else rate}


def _c7(cache):
    out = _run5(cache)
    half = _run5_half(cache)
    params = standard_params()
    grid = RUN5_GRID

    margins = []
    for snap in out.snapshots:
        state = snap.to_state(grid)
        rho = _density_at(out, snap.t)
        lam = float(radius(snap.t, params))
        for z in (0.0, lam / 2.0, lam):
            m = check_F_le_sqrtG(state, rho, z, params)
            margins.append(m.margin)
    margins = np.asarray(margins)

    fg1 = check_FG1(out, params)
    fg1_half = check_FG1(half, params)
    c0_shift = abs(fg1_half.C0 - fg1.C0) / fg1.C0

    contraction = check_contraction(out, params, C0=fg1.C0)

    # field-decay bound sqrt(eps) <t>^(1-sigma) at the traced times past the first
    ts = out.times[1:]
    F = np.array([gen_F(_density_at(out, t), float(t), float(radius(t, params)),
                        params) for t in ts])
    bound = math.sqrt(RUN5_EPS) * (1.0 + ts**2) ** ((1.0 - params.sigma) / 2.0)
    decay_ok = F <= bound
    holds_from = None
    bad = np.flatnonzero(~decay_ok)
    if bad.size == 0:
        holds_from = float(ts[0])
    elif bad[-1] + 1 < ts.size:
        holds_from = float(ts[bad[-1] + 1])

    return {
        "margins": margins,
        "min_margin": float(margins.min()),
        "C0": fg1.C0, "C0_half": fg1_half.C0, "C0_shift": c0_shift,
        "fg1_violation": fg1.max_violation,
        "contraction_ok": float(contraction.satisfied.all()),
        "contraction_first_failure": (math.nan if contraction.first_failure is None
                                      else contraction.first_failure),
        "decay_F": F, "decay_bound": bound,
        "decay_ok_everywhere": float(decay_ok.all()),
        "decay_n_violations": int((~decay_ok).sum()),
        "decay_holds_from": math.nan if holds_from is None else holds_from,
    }


def _c8(cache):
    grid = Grid(k_max=4, V=8.0, N_v=512)
    dt = 0.02
    single = run(RunConfig(eq=zero(), grid=grid, dt=dt, t_final=14.0,
                           modes=((1, 1e-3, 10.0),), trace_stride=1,
                           profile=gaussian()))
    mag = np.abs(single.traces[1].values)
    t_peak = float(single.times[int(np.argmax(mag))])

    rep = echo_experiment(RunConfig(eq=zero(), grid=grid, dt=dt, t_final=14.0,
                                    modes=((1, 1e-3, 10.0), (1, 1e-3, 0.0)),
                                    trace_stride=1, profile=gaussian()))
    secondary = next((p for p in rep.peaks if p.mode == 2), None)
    return {"single_trace": mag, "t_peak": t_peak, "dt": dt,
            "secondary_measured": secondary.measured_time,
            "secondary_predicted": secondary.predicted_time,
            "secondary_rel_err": secondary.relative_error}


def _c9(cache):
    # mode-1 data synthesized directly from a sub-analytic envelope in eta
    a, d = 2.0, 3.6
    hat = lambda ts: 1e-3 * np.exp(-a * (d**2 + np.asarray(ts) ** 2) ** 0.3)
    tr = volterra_solve(EQ, 1, hat, 2e-3, 40.0)
    stretched = fit_decay(tr, gamma=0.6, window=(5.0, 40.0), use_envelope=False)
    exponential = fit_decay(tr, gamma=1.0, window=(5.0, 40.0), use_envelope=False)
    return {"trace": tr.values,
            "residual_stretched": stretched.residual,
            "rate_stretched": stretched.rate,
            "residual_exponential": exponential.residual,
            "improvement": 1.0 - stretched.residual / exponential.residual}


_BUILDERS = {"c1": _c1, "c2": _c2, "c3": _c3, "c4": _c4, "c5": _c5,
             "c6": _c6, "c7": _c7, "c8": _c8, "c9": _c9}


def _build(name):
    start = time.time()
    payload = _once(_cache, name, _BUILDERS[name])
    elapsed = time.time() - start
    _digests.setdefault(name, _digest(payload))
    return payload, elapsed


# ---------------------------------------------------------------------------
# the criteria


def test_criterion_01_free_transport_exactness():
    p, elapsed = _build("c1")
    assert p["worst"] <= 1e-12, (
        f"free transport: worst relative density error {p['worst']:.3e} "
        f"exceeds 1e-12 (k <= 8, t <= 20)")
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1 s"


def test_criterion_02_route_equivalence():
    p, elapsed = _build("c2")
    assert p["max_err"] <= 1e-5, (
        f"volterra vs kernel route max error {p['max_err']:.3e} exceeds 1e-5")
    assert 3.0 < p["ratio"] < 5.0, (
        f"halving the step changed the route gap by x{p['ratio']:.2f}, "
        f"expected about x4 (second order)")
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30 s"


def test_criterion_03_resolvent_decay():
    p, elapsed = _build("c3")
    floor = 0.5 * p["theta1"]
    for k in range(1, 5):
        assert p[f"theta_fit_{k}"] >= floor, (
            f"k={k}: fitted kernel decay rate {p[f'theta_fit_{k}']:.4f} "
            f"below half the certified strip {floor:.4f}")
        assert p[f"identity_residual_{k}"] < 5e-6, (
            f"k={k}: kernel identity residual "
            f"{p[f'identity_residual_{k}']:.3e} exceeds 5e-6")
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2 min"


def test_criterion_04_linear_rate_match():
    p, elapsed = _build("c4")
    rel = abs(p["rate"] - p["ref"]) / p["ref"]
    assert rel < 0.02, (
        f"fitted field decay rate {p['rate']:.6f} is {rel:.2%} from the "
        f"root reference {p['ref']:.6f} (tolerance 2%)")
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 1 min"


def test_criterion_05_nonlinear_damping():
    p, elapsed = _build("c5")
    assert p["sup_field_final"] < 1e-8, (
        f"sup_k |E_k(30)| = {p['sup_field_final']:.3e} exceeds 1e-8")
    assert p["mass_drift_max"] < 1e-10, (
        f"mass drift {p['mass_drift_max']:.3e} exceeds 1e-10")
    assert p["l2_drift_max"] < 1e-6, (
        f"L2 drift {p['l2_drift_max']:.3e} exceeds 1e-6")
    assert p["closure"] < 1e-5, (
        f"model-consistency residual {p['closure']:.3e} exceeds 1e-5 "
        f"on the dense sub-run to T = 10")
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 5 min"


def test_criterion_06_instability_negative_control():
    p, elapsed = _build("c6")
    re = float(p["root"][0])
    clauses = [
        ("dominant root has positive real part", re > 0,
         f"measured Re lambda* = {re:.6f} (root residual {p['root_residual']:.1e}): "
         "the two-stream pair at this separation is damped on this domain, "
         "so there is no growth rate to match"),
        ("|E_1| reaches the window [1e-5, 1e-3]",
         p["n_window"] >= 8,
         f"max |E_1| = {p['E1_max']:.2e} from eps = 1e-6 data; "
         f"{p['n_window']} samples fall in the window"),
        ("measured growth rate within 5% of Re lambda*",
         not math.isnan(p["rate"]) and re > 0
         and abs(p["rate"] - re) / abs(re) < 0.05,
         f"fitted rate = {p['rate']}"),
    ]
    failures = [f"{name}: {detail}" for name, ok, detail in clauses if not ok]
    assert not failures, "unattainable as stated; measurements:\n  " + \
        "\n  ".join(failures)
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2 min"


def test_criterion_07_inequality_suite():
    p, elapsed = _build("c7")
    clauses = [
        ("density-norm domination margin >= -1e-8 at z in {0, lam/2, lam}",
         p["min_margin"] >= -1e-8,
         f"min margin {p['min_margin']:.3e} over all snapshots"),
        ("norm-growth constant stable within 10% under step halving",
         p["C0_shift"] < 0.10,
         f"C0 = {p['C0']:.6g} vs {p['C0_half']:.6g} halved "
         f"({p['C0_shift']:.2%} shift), pointwise violations {p['fg1_violation']:.1e}"),
        ("radius condition holds at every traced time",
         p["contraction_ok"] == 1.0,
         f"fails from t = {p['contraction_first_failure']:g} with the fitted "
         f"C0 = {p['C0']:.4g}: the schedule cannot absorb the forcing at this "
         f"data amplitude"),
        ("weighted field bound sqrt(eps) <t>^(1-sigma) past the first sample",
         p["decay_ok_everywhere"] == 1.0,
         f"{p['decay_n_violations']} of {p['decay_F'].size} samples exceed the "
         f"bound; it only holds from t = {p['decay_holds_from']:g} on "
         f"(e.g. F = {p['decay_F'][100]:.3e} vs bound {p['decay_bound'][100]:.3e} "
         f"at t = 5)"),
    ]
    failures = [f"{name}: {detail}" for name, ok, detail in clauses if not ok]
    assert not failures, \
        "inequality suite, failing clauses with measurements:\n  " + \
        "\n  ".join(failures)
    assert elapsed < 180.0, f"runtime {elapsed:.1f}s exceeds 3 min"


def test_criterion_08_echo_timing():
    p, elapsed = _build("c8")
    assert abs(p["t_peak"] - 10.0) <= 2 * p["dt"], (
        f"single-wave burst at t = {p['t_peak']:.3f}, expected 10 +- {2*p['dt']}")
    assert p["secondary_rel_err"] is not None and p["secondary_rel_err"] < 0.05, (
        f"secondary peak at t = {p['secondary_measured']} vs predicted "
        f"{p['secondary_predicted']} ({p['secondary_rel_err']:.2%} off)")
    assert elapsed < 180.0, f"runtime {elapsed:.1f}s exceeds 3 min"


def test_criterion_09_gevrey_decay_shape():
    p, elapsed = _build("c9")
    assert p["residual_stretched"] <= 0.7 * p["residual_exponential"], (
        f"stretched-exponential fit residual {p['residual_stretched']:.4e} "
        f"is not 30% below the pure-exponential {p['residual_exponential']:.4e} "
        f"(improvement {p['improvement']:.1%})")
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 5 min"


def test_criterion_10_determinism():
    fresh: dict = {}
    mismatched = []
    for name, builder in _BUILDERS.items():
        baseline = _digests.get(name) or _digest(_once(_cache, name, builder))
        again = _digest(builder(fresh))
        if again != baseline:
            mismatched.append(name)
    assert not mismatched, f"reruns changed bytes for: {', '.join(mismatched)}"
