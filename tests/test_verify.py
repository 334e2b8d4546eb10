"""Manufactured solutions, their symbolic sources, and the scan oracles."""

import dataclasses
import functools
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

import oldb2d.verify as verify
from oldb2d.constitutive import (ModelParams, calibrate_H_constants, bregman_G,
                                 lower_bound_G, lower_bound_H)
from oldb2d.dynamics import SolverOptions, run_simulation
from oldb2d.grid import Grid
from oldb2d.mms_sources import SOLUTIONS
from oldb2d.verify import (MMS_NAMES, LemmaCertificate, convergence_study,
                           make_ms, oracle_lemma_scan)

from conftest import periodic_grid
from mms_symbolic import (FIELD_NAMES, STATE_NAMES, X as _X, Y as _Y, T as _T,
                          SymbolicParams, SymbolicSolution, closure,
                          field_exprs, make_symbolic)

ROOT = Path(__file__).resolve().parent.parent


def test_constant_equilibrium_has_zero_sources(prm):
    exprs = dict(rho=sp.Integer(1), ux=sp.Integer(0), uy=sp.Integer(0),
                 eta=sp.Integer(1), t11=sp.Float(prm.k), t12=sp.Integer(0),
                 t22=sp.Float(prm.k))
    ms = SymbolicSolution("equilibrium", exprs, prm)
    for name in ("rho", "mx", "my", "eta", "t11", "t12", "t22"):
        assert ms.residual_is_zero(name)
    g = periodic_grid(8)
    for arr in ms.source_fn(g)(0.3):
        assert np.max(np.abs(arr)) == 0.0


def test_steady_ws_unforced_equations(prm):
    ms = make_symbolic("steady-ws", prm)
    # continuity and the polymer-density equation hold without sources, and
    # the momentum residual has been recast as a body force
    for name in ("rho", "eta", "mx", "my"):
        assert ms.residual_is_zero(name)
    assert make_ms("steady-ws", prm).force_fn(periodic_grid(8)) is not None
    # the stress equations do need their sources
    assert not ms.residual_is_zero("t12")


def test_diffusion_eta_residuals(prm):
    ms = make_symbolic("diffusion-eta", prm)
    for name in ("rho", "eta"):
        assert ms.residual_is_zero(name)
    # momentum does need a source: grad q(eta) + div T do not cancel
    assert not ms.residual_is_zero("mx")
    # T = k eta I inherits the heat equation up to the relaxation source,
    # which vanishes since k eta - t11 = 0
    assert ms.residual_is_zero("t11")
    assert ms.residual_is_zero("t12")


def test_time_independent_mass_source_is_divergence(prm):
    # steady fields: F_rho must equal div(rho u) symbolically
    exprs = dict(rho=1 + sp.Rational(1, 10) * sp.sin(2 * sp.pi * _X),
                 ux=sp.Rational(1, 20) * sp.cos(2 * sp.pi * _Y),
                 uy=sp.Integer(0), eta=sp.Integer(1),
                 t11=sp.Integer(1), t12=sp.Integer(0), t22=sp.Integer(1))
    ms = SymbolicSolution("steady-check", exprs, prm)
    want = sp.diff(exprs["rho"] * exprs["ux"], _X) \
        + sp.diff(exprs["rho"] * exprs["uy"], _Y)
    assert sp.simplify(ms.source_exprs[0] - want) == 0


def test_symbolic_sources_match_fd_oracle(prm):
    # differentiate the closed-form fields numerically (4th-order central,
    # independent of both sympy's chain rule and the production stencils)
    ms = make_symbolic("periodic-smooth", prm)
    pts = [(0.13, 0.41, 0.27), (0.71, 0.09, 0.61)]
    h = 1e-3

    def d4(f, v0, which):
        def at(s):
            a = list(v0)
            a[which] += s
            return f(*a)
        return (-at(2 * h) + 8 * at(h) - 8 * at(-h) + at(-2 * h)) / (12 * h)

    rho = ms.field_fns["rho"]
    ux = ms.field_fns["ux"]
    uy = ms.field_fns["uy"]
    f_rho = sp.lambdify((_X, _Y, _T), ms.source_exprs[0], modules="numpy")
    for p in pts:
        num = (d4(lambda x, y, t: rho(x, y, t), p, 2)
               + d4(lambda x, y, t: rho(x, y, t) * ux(x, y, t), p, 0)
               + d4(lambda x, y, t: rho(x, y, t) * uy(x, y, t), p, 1))
        assert num == pytest.approx(f_rho(*p), abs=1e-9)


def test_sampled_state_is_positive_and_consistent(prm):
    ms = make_ms("periodic-smooth", prm)
    g = periodic_grid(16)
    s = ms.sample_state(g, 0.4)
    assert np.min(s.rho) > 0 and np.min(s.eta) > 0
    ux = ms._planes(ms._fields, g.cell_axes(), 0.4)[1]
    assert np.allclose(s.mx, s.rho * ux, rtol=1e-14)


@pytest.mark.parametrize("name", MMS_NAMES)
def test_sampled_planes_are_fresh_and_writable(prm, name):
    # zero residuals, lines and full planes alike: each call hands out new
    # planes that a caller may write into. diffusion-eta's one function of
    # its fields returns t11 and t22 as one object, and its sources 0 five
    # times, so each output needs its own plane
    ms = make_ms(name, prm)
    g = Grid(nx=24, ny=16, lx=1.0, ly=1.0, boundary_mode="periodic")
    fns = [f for f in (ms.source_fn(g), ms.force_fn(g)) if f is not None]
    planes = [a for fn in fns for t in (0.3, 0.3) for a in fn(t)]
    state = ms.sample_state(g, 0.3)
    planes += [getattr(state, f) for f in STATE_NAMES]
    for i, a in enumerate(planes):
        assert a.shape == g.shape and a.dtype == np.float64 and a.flags.writeable
        assert not any(np.shares_memory(a, b) for b in planes[:i])


_OTHER_PARAMS = dict(a=2.5, gamma=1.4, mu_s=0.35, mu_b=0.07, eps=0.013,
                     k=1.7, lam=0.6, zfrak=0.3, L=2.0)


@pytest.mark.parametrize("name", MMS_NAMES)
@pytest.mark.parametrize("params", [{}, _OTHER_PARAMS], ids=["default", "other"])
def test_generated_sources_match_sympy(params, name):
    """The generated fields, sources and forces equal fresh sympy closures
    of the derivation at the same numbers, to 4 ulp or 1e-14.

    The numbers enter sympy as exact rationals: lambdify prints a float to
    15 digits, which alone moves the sources of a 1.5-long box by 1e-14."""
    prm = ModelParams(**params)
    exact = SymbolicParams(**{f.name: sp.Rational(getattr(prm, f.name))
                              for f in dataclasses.fields(prm) if f.init})
    exprs, force = field_exprs(name, exact, sp.Integer(1), sp.Rational(3, 2))
    ref = SymbolicSolution(name, exprs, exact, force)
    # non-square on purpose: swapped x/y axes cannot pass
    ms = make_ms(name, prm, lx=1.0, ly=1.5)
    g = Grid(nx=24, ny=16, lx=1.0, ly=1.5, boundary_mode="periodic")
    got = list(ms._planes(ms._fields, g.cell_axes(), 0.3))
    got += ms.source_fn(g)(0.3)
    want = [ref.exprs[k] for k in FIELD_NAMES] + list(ref.source_exprs)
    if force:
        got += ms.force_fn(g)(0.3)
        want += ref.force_exprs
    assert len(got) == len(want) == (16 if force else 14)
    xc, yc = g.cell_axes()
    for expr, a in zip(want, got):
        b = np.broadcast_to(closure(expr)(xc, yc, 0.3), g.shape)
        assert a.shape == g.shape
        assert np.all(np.abs(a - b) <= np.maximum(4 * np.spacing(np.abs(b)), 1e-14))


@functools.cache
def _per_output_functions(name: str) -> tuple:
    """(constants, group -> output functions) of one solution, each output
    lambdified alone through ``gen_mms._cse``, as the generator once wrote
    them: the reference of the generated functions' bits."""
    spec = importlib.util.spec_from_file_location(
        "gen_mms", ROOT / "scripts" / "gen_mms.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    consts, groups = gen.solution_exprs(name)

    def alone(args, expr):
        return sp.lambdify(args, expr, modules=np, cse=gen._cse,
                           printer=gen._PRINTER)
    xytc = (_X, _Y, _T, gen.C)
    return (alone(gen.PARAMS + (gen.LX, gen.LY), sp.Tuple(*consts)),
            {g: [alone(xytc, e) for e in es] for g, es in groups.items()})


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("name", MMS_NAMES)
@pytest.mark.parametrize("params", [{}, _OTHER_PARAMS], ids=["default", "other"])
def test_merged_outputs_keep_their_bits(params, name):
    """Each output of a group's one generated function, with definitions
    shared across the group, has the bits of that output computed alone."""
    constants, groups = _per_output_functions(name)
    prm = ModelParams(**params)
    kw = {f.name: getattr(prm, f.name) for f in dataclasses.fields(prm) if f.init}
    c = constants(**kw, lx=1.0, ly=1.5)
    assert np.array_equal(_bits(SOLUTIONS[name][0](**kw, lx=1.0, ly=1.5)), _bits(c))
    ms = make_ms(name, prm, lx=1.0, ly=1.5)
    g = Grid(nx=24, ny=16, lx=1.0, ly=1.5, boundary_mode="periodic")
    x, y = axes = g.cell_axes()
    for t in (0.3, 1.7):
        got = {"fields": ms._planes(ms._fields, axes, t),
               "sources": ms.source_fn(g)(t)}
        if ms.force_fn(g) is not None:
            got["forces"] = ms.force_fn(g)(t)
        assert got.keys() == groups.keys()
        for group, fns in groups.items():
            assert len(got[group]) == len(fns)
            for fn, a in zip(fns, got[group]):
                want = np.full(g.shape, fn(x, y, t, c), dtype=np.float64)
                assert np.count_nonzero(_bits(a) != _bits(want)) == 0, (group, t)


def test_generated_module_is_fresh(tmp_path):
    """src/oldb2d/mms_sources.py is what scripts/gen_mms.py writes."""
    out = tmp_path / "mms_sources.py"
    subprocess.run([sys.executable, str(ROOT / "scripts" / "gen_mms.py"), str(out)],
                   check=True)
    assert out.read_bytes() == (ROOT / "src" / "oldb2d" / "mms_sources.py").read_bytes()


_SOURCE_DIGEST = """
import hashlib
import numpy as np
from oldb2d.constitutive import ModelParams
from oldb2d.grid import Grid
from oldb2d.verify import make_ms
g = Grid(nx=16, ny=16, lx=1.0, ly=1.0, boundary_mode="periodic")
arrs = make_ms("periodic-smooth", ModelParams()).source_fn(g)(0.3)
print(hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes()
                              for a in arrs)).hexdigest())
"""


def _python(code: str, *args: str, **env: str) -> str:
    """stdout of ``code`` run by a fresh interpreter that imports this
    checkout's ``oldb2d``."""
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **env)
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_sources_do_not_depend_on_hash_seed():
    digests = {_python(_SOURCE_DIGEST, PYTHONHASHSEED=seed) for seed in ("1", "8")}
    assert len(digests) == 1


def test_unknown_ms_name(prm):
    with pytest.raises(ValueError):
        make_ms("no-such-solution", prm)


def test_convergence_study_needs_three_levels(prm):
    ms = make_ms("diffusion-eta", prm)
    with pytest.raises(ValueError):
        convergence_study(ms, prm, levels=(16, 32))


@pytest.mark.parametrize("levels", [(16, 24, 32), (4, 8, 16)])
def test_convergence_study_needs_doubling_levels(prm, levels):
    # log2(e_h / e_{h/2}) is an order only if each level doubles the last
    ms = make_ms("diffusion-eta", prm)
    with pytest.raises(ValueError, match="each twice the previous"):
        convergence_study(ms, prm, levels=levels)


def test_convergence_study_small_diffusion(prm):
    ms = make_ms("diffusion-eta", prm)
    rep = convergence_study(ms, prm, levels=(8, 16, 32), t_end=0.02,
                            fields=("eta",))
    assert rep.valid
    assert rep.l2_orders["eta"][-1] == pytest.approx(2.0, abs=0.35)
    rows = rep.table_rows()
    assert len(rows) == 3 and rows[0][0] == "eta"


def test_ssprk2_is_second_order_in_time(prm):
    """On one 16^2 grid the spatial error is common to every run, so the
    differences to a dt/64 run measure the time error alone: SSP-RK2
    (Gottlieb, Shu & Tadmor, SIAM Review 43, 2001) halves it twice over
    per halving of dt. Also runs the generated time-dependent sources."""
    ms = make_ms("periodic-smooth", prm)
    g = periodic_grid(16)
    t_end, dt = 0.04, 4e-3

    def final(step):
        opts = SolverOptions(dt=step, snapshot_stride=10 ** 9)
        return run_simulation(ms.sample_state(g, 0.0), prm, t_end, opts,
                              source_fn=ms.source_fn(g)).final

    ref = final(dt / 64)
    errs = []
    for j in range(4):
        s = final(dt / 2 ** j)
        errs.append(max(np.sqrt(np.mean((getattr(s, f) - getattr(ref, f)) ** 2))
                        for f in ("rho", "mx", "my", "eta", "t11", "t12", "t22")))
    orders = [np.log2(errs[j] / errs[j + 1]) for j in range(3)]
    assert min(orders) >= 1.9, orders


def test_lemma_scan_passes_with_corrected_constants(prm):
    certs = oracle_lemma_scan(prm, n_samples=1 << 12)
    assert certs["H"].passed and certs["H"].min_slack >= 0.0
    assert certs["G"].passed and certs["G"].min_slack >= 0.0
    assert certs["H"].n_samples >= 1 << 12


def test_lemma_scan_falsifies_uncorrected_G(prm):
    certs = oracle_lemma_scan(prm, n_samples=1 << 12, corrected=False)
    g = certs["G"]
    assert not g.passed and g.min_slack < 0.0
    eta, eta_t = g.argmin
    # worst case sits on the ridge eta = 2 eta_t at the top of the range,
    # with the closed-form defect (2 log 2 - 3/2) kL eta_t
    assert eta == pytest.approx(2.0 * eta_t, rel=1e-12)
    assert g.min_slack == pytest.approx((2 * np.log(2) - 1.5) * prm.kL * eta_t,
                                        rel=1e-6)


def _unchunked_scan(prm, n_samples, seed, corrected):
    """The lemma scan as one draw of all pairs and one argmin per bound."""
    from scipy.stats import qmc

    m = max(10, int(np.ceil(np.log2(n_samples))))
    pts = qmc.Sobol(d=4, scramble=True, seed=seed).random_base2(m)
    vals = 10.0 ** (-6.0 + 12.0 * pts)
    rho, rho_t, eta, eta_t = vals.T
    hb = calibrate_H_constants(prm)
    slack_h = (verify.bregman_H(rho, rho_t, prm)
               - lower_bound_H(rho, rho_t, prm, hb.delta, hb.c))
    ridge_t = 10.0 ** np.linspace(-6.0, 6.0, 4096)
    ridge_e = 2.0 * ridge_t
    slack_g = np.concatenate([
        bregman_G(e, et, prm) - lower_bound_G(e, et, prm, corrected=corrected)
        for e, et in ((eta, eta_t), (ridge_e, ridge_t))])
    all_eta = np.concatenate([eta, ridge_e])
    all_eta_t = np.concatenate([eta_t, ridge_t])
    certs = {}
    for kind, slack, a, b, ok in (("H", slack_h, rho, rho_t, True),
                                  ("G", slack_g, all_eta, all_eta_t, corrected)):
        i = int(np.argmin(slack))
        certs[kind] = LemmaCertificate(
            kind=kind, corrected=ok, n_samples=pts.shape[0], seed=seed,
            delta=hb.delta if kind == "H" else None,
            c=hb.c if kind == "H" else None, min_slack=float(slack[i]),
            argmin=(float(a[i]), float(b[i])), passed=bool(slack[i] >= 0.0))
    return certs


def _same_certificates(got, want):
    # NaN slacks compare equal here; dataclass equality would not
    for kind in ("H", "G"):
        g, w = vars(got[kind]), vars(want[kind])
        assert g.keys() == w.keys()
        for key in g:
            assert repr(g[key]) == repr(w[key]), (kind, key)


@pytest.mark.parametrize("corrected", [True, False])
@pytest.mark.parametrize("n_samples", [1 << 10, 1 << 12, 100_000, 1 << 18])
def test_chunked_lemma_scan_matches_one_draw(prm, n_samples, corrected):
    got = oracle_lemma_scan(prm, n_samples=n_samples, seed=7, corrected=corrected)
    _same_certificates(got, _unchunked_scan(prm, n_samples, 7, corrected))


@pytest.mark.parametrize("fill,chunks", [(np.nan, (2,)), (-1e300, (1, 3))])
def test_lemma_scan_folds_chunks_like_argmin(prm, monkeypatch, fill, chunks):
    # a NaN in the third chunk alone, or a tie between the second and the
    # fourth: the certificate names the pair of the first one
    from scipy.stats import qmc

    n, chunk = 1 << 18, verify._SCAN_CHUNK
    pts = qmc.Sobol(d=4, scramble=True, seed=7).random_base2(18)
    targets = [10.0 ** (-6.0 + 12.0 * pts[k * chunk + 5, 0]) for k in chunks]
    real = verify.bregman_H

    def poisoned(rho, rho_t, p):
        return np.where(np.isin(rho, targets), fill, real(rho, rho_t, p))
    monkeypatch.setattr(verify, "bregman_H", poisoned)
    got = oracle_lemma_scan(prm, n_samples=n, seed=7)
    _same_certificates(got, _unchunked_scan(prm, n, 7, True))
    h = got["H"]
    assert repr(h.min_slack) == repr(fill) and h.argmin[0] == targets[0]
    assert not h.passed


def test_sobol_directions_match_scipy():
    from scipy.stats import qmc

    # scipy keeps its direction numbers, column j aligned to bit 29 - j, in _sv
    want = qmc.Sobol(d=4, scramble=False)._sv
    got = verify._sobol_directions()
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("seed", [0, 3, 12345, 20240817])
def test_sobol_blocks_match_scipy_bit_for_bit(seed):
    from scipy.stats import qmc

    ref = qmc.Sobol(d=4, scramble=True, seed=seed)
    shift, v = verify._sobol_scramble(seed)
    assert np.array_equal(shift, ref._shift) and np.array_equal(v, ref._sv)
    # one 2^10 draw, then four chunks of the scan's size and four of 2^16:
    # odd chunks after chunk 0 too
    scan = verify._SCAN_CHUNK
    for n, chunk in ((1 << 10, 1 << 10), (4 * scan, scan), (1 << 18, 1 << 16)):
        ref = qmc.Sobol(d=4, scramble=True, seed=seed)
        blocks = list(verify._sobol_blocks(seed, n, chunk))
        assert len(blocks) == n // chunk
        for got in blocks:
            want = ref.random(chunk).T
            assert got.shape == want.shape == (4, chunk)
            # one contiguous row per variable: the scan's passes stream
            assert all(row.flags.c_contiguous for row in got)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("corrected", [True, False])
def test_lemma_scan_certificate_does_not_depend_on_block_size(
        prm, monkeypatch, corrected):
    certs = []
    for chunk in (1 << 10, verify._SCAN_CHUNK, 1 << 16):
        monkeypatch.setattr(verify, "_SCAN_CHUNK", chunk)
        certs.append(oracle_lemma_scan(prm, n_samples=1 << 18, seed=11,
                                       corrected=corrected))
    for got in certs[1:]:
        _same_certificates(got, certs[0])


def test_lemma_scan_rejects_more_pairs_than_the_sequence_has(prm):
    with pytest.raises(ValueError, match="n_samples"):
        oracle_lemma_scan(prm, n_samples=(1 << 30) + 1)


def _loaded_after(code: str, module: str, *args: str) -> bool:
    """Whether ``module`` is in ``sys.modules`` after a fresh interpreter
    runs ``code``."""
    out = _python("import sys\n" + code + f"\nprint({module!r} in sys.modules)",
                  *args)
    return out.splitlines()[-1] == "True"


def test_importing_verify_leaves_scipy_stats_unloaded():
    assert not _loaded_after("import oldb2d.verify", "scipy.stats")


_MAIN = """
from oldb2d.cli import main
assert main(sys.argv[1:]) == 0
"""


def test_importing_verify_leaves_sympy_unloaded():
    assert not _loaded_after("import oldb2d.verify", "sympy")


def test_lemma_check_leaves_sympy_unloaded(tmp_path):
    cfg = tmp_path / "lemma.ini"
    cfg.write_text("[grid]\nnx = 16\nny = 16\n[lemma]\nsamples = 1024\n")
    assert not _loaded_after(_MAIN, "sympy", "lemma-check", str(cfg))


def test_run_leaves_sympy_unloaded(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[grid]\nnx = 16\nny = 16\n[time]\nt_end = 0.001\n"
                   "dt = 5e-4\n")
    assert not _loaded_after(_MAIN, "sympy", "--out", str(tmp_path / "out"),
                             "run", str(cfg))


def test_manufactured_solution_leaves_numpy_f2py_unloaded():
    code = ("from oldb2d.constitutive import ModelParams\n"
            "from oldb2d.verify import make_ms\n"
            "make_ms('periodic-smooth', ModelParams())")
    assert not _loaded_after(code, "numpy.f2py")


_TINY = "[grid]\nnx = 16\nny = 16\n"
_SEEDED = "[time]\nt_end = 0.001\ndt = 5e-4\n[initial]\ndelta0 = 1e-3\nseed = 5\n"
_MMS_RUN = "[time]\nt_end = 0.001\ndt = 5e-4\n[initial]\npreset = mms:steady-ws\n"
#: scipy and sympy, and numpy.random, whose bit generators import secrets,
#: hashlib and OpenSSL's libcrypto
_TEST_ONLY = ("scipy", "sympy", "numpy.random", "secrets", "_hashlib")


@pytest.mark.parametrize("command,text", [
    ("lemma-check", "[lemma]\nsamples = 1024\n"),
    ("run", "[time]\nt_end = 0.001\ndt = 5e-4\n"),
    ("compare", "[time]\nt_end = 0.001\ndt = 5e-4\n"),
    ("verify", "[initial]\npreset = mms:diffusion-eta\n"
               "[verify]\nlevels = 8,16,32\nt_end = 0.002\n"),
    ("run", _SEEDED),
    ("run", "boundary_mode = physical\n" + _SEEDED),
    ("compare", _SEEDED),
    ("run", _MMS_RUN),
], ids=["lemma-check", "run", "compare", "verify", "run-seeded",
        "run-seeded-walled", "compare-seeded", "run-mms"])
def test_commands_leave_scipy_unloaded(tmp_path, command, text):
    """No command loads scipy, sympy or numpy.random, the tests' references."""
    cfg = tmp_path / "c.ini"
    cfg.write_text(_TINY + text)
    args = [str(cfg)] * (2 if command == "compare" else 1)
    code = (f"import sys\n{_MAIN}\n"
            f"print([m for m in {_TEST_ONLY!r} if m in sys.modules])")
    out = _python(code, "--out", str(tmp_path / "out"), command, *args)
    assert out.splitlines()[-1] == "[]"


@pytest.mark.parametrize("command,text", [
    ("run", "[time]\nt_end = 0.001\ndt = 5e-4\n"),
    ("compare", _SEEDED),
], ids=["run", "compare"])
def test_runs_without_mms_preset_leave_generated_sources_unloaded(tmp_path, command,
                                                                  text):
    cfg = tmp_path / "c.ini"
    cfg.write_text(_TINY + text)
    args = [str(cfg)] * (2 if command == "compare" else 1)
    assert not _loaded_after(_MAIN, "oldb2d.mms_sources", "--out",
                             str(tmp_path / "out"), command, *args)
