import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from torusmix import cli
from torusmix import (CovarianceOperator, FourierField, default_cellular_flow, generator,
                      h1_trace, lyapunov_covariance, mode_table, read_covariance,
                      streamline_projection)
from torusmix.cli import (ConfigError, _streamline_deviations, _top_eigenspace, main,
                          parse_spec)
from torusmix.operators import _numpy_blas_pool
from torusmix.spectral import _streamline_projector

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

SHEAR_FLOW = """
[flow]
kind = shear
profile =
    0 1 sin 1.0
"""

CELL_FLOW = """
[flow]
kind = cellular
streamfunction_N = 2
streamfunction =
    1 -1 cos 2.2214414690791831
    1 1 cos -2.2214414690791831
"""


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def ladder_config(tmp_path, nu="0.2 0.1", N=6, noise="0 1 cos 1.0"):
    return write_config(
        tmp_path,
        f"""
[experiment]
type = covariance-ladder
N = {N}
{SHEAR_FLOW}
[noise]
modes =
    {noise}

[covariance-ladder]
nu = {nu}
""",
    )


def test_validate_ok(tmp_path, capsys):
    cfg = ladder_config(tmp_path)
    assert main(["validate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
    assert "dimension = 168" in out  # (2*6+1)^2 - 1


def test_validate_missing_N(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        """
[experiment]
type = covariance-ladder
"""
        + SHEAR_FLOW,
    )
    assert main(["validate", "--config", cfg]) == 1
    out = capsys.readouterr().out
    assert "invalid" in out and "experiment.N" in out


def test_run_missing_N_exits_nonzero_with_field_name(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        """
[experiment]
type = covariance-ladder
"""
        + SHEAR_FLOW,
    )
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code != 0
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError"
    assert any("experiment.N" in f for f in record["fields"])


def test_validate_rejects_inviscid_ladder(tmp_path):
    cfg = ladder_config(tmp_path, nu="0.1 0.0")
    with pytest.raises(ConfigError, match="stationary"):
        parse_spec(cfg)


def simulate_config(tmp_path, scheme, N=40, flow=SHEAR_FLOW):
    return write_config(
        tmp_path,
        f"""
[experiment]
type = simulate
N = {N}
{flow}
[noise]
modes =
    0 1 cos 1.0

[simulate]
nu = 0.1
scheme = {scheme}
dt = 0.5
horizon = 1.0
burn_in = 0.0
ensemble = 1
seed = 0
f0 =
""",
        name="simulate.ini",
    )


# sin x sin y plus a sin(2x + y) and a cos y term: no lattice map and no
# parity splits it, so at N = 32 its advection matrix is one 4224-row block
RANDOM_FLOW = """
[flow]
kind = cellular
streamfunction_N = 2
streamfunction =
    1 -1 cos 1.1
    1 1 cos -1.1
    2 1 sin 0.37
    0 1 cos -0.52
"""


def support_config(tmp_path, N):
    return write_config(tmp_path, f"""
[experiment]
type = cellular-support
N = {N}
{RANDOM_FLOW}
[noise]
modes =
    0 1 cos 1.0
    1 1 sin 1.0

[cellular-support]
nu = 0.1
""", name="support.ini")


def test_validate_warns_above_dense_cap(tmp_path, capsys):
    # the random cellular flow's one forced block has 4224 rows, for the
    # Lyapunov solve and for the ExactGaussian step alike
    for cfg in (simulate_config(tmp_path, "ExactGaussian", N=32, flow=RANDOM_FLOW),
                support_config(tmp_path, 32)):
        assert main(["validate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "largest_block = 4224" in out
        assert "warning" in out and "4224" in out and "4000" in out


def test_exact_gaussian_above_old_dimension_cap(tmp_path, capsys):
    # the sin y shear at N = 40 (n = 6560) forced on cos y: ExactGaussian
    # steps the 1-row block of (0, 1) alone, so neither validate nor run
    # meets the cap
    cfg = simulate_config(tmp_path, "ExactGaussian")
    assert main(["validate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "dimension = 6560" in out and "largest_block = 1\n" in out
    assert "warning" not in out
    out = tmp_path / "exact40"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    Q = read_covariance(out / "empirical_covariance.cov")
    assert [idx.tolist() for idx, _ in Q.blocks.blocks] == [
        [mode_table(40).coefficient_index((0, 1), "cos")]]


def test_validate_dissipation_probe_reports_dense_sectors(tmp_path, capsys):
    # the sectors semigroup_norm may exponentiate densely: for the sin y
    # shear config at N = 16, blocks of 33 rows split into 17 + 16; for the
    # random flow at N = 30, one sector of n = 3720 rows
    probe = write_config(tmp_path, f"""
[experiment]
type = dissipation-probe
N = 30
{RANDOM_FLOW}
[dissipation-probe]
tau = 1.0
nu = 0.1
""", name="probe.ini")
    assert main(["validate", "--config", str(CONFIGS / "dissipation_probe_shear.ini")]) == 0
    out = capsys.readouterr().out
    assert "largest_block = 17\n" in out and "warning" not in out
    assert main(["validate", "--config", probe]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "largest_block = 3720" in out and "runtime_class = seconds" not in out
    assert not any(line.startswith("warning") for line in out)


def test_validate_reports_block_sizes_not_dimension(tmp_path, capsys):
    # the sin y shear at N = 40 (n = 6560): forced blocks of 1 and 81 rows,
    # and the solve's two working arrays of the 81-row block
    assert main(["validate", "--config", ladder_config(tmp_path, N=40,
                                                       noise="0 1 cos 1.0\n    1 1 cos 1.0")]) == 0
    out = capsys.readouterr().out.splitlines()
    doubles = 1 + 81**2 + 2 * 81**2
    assert out[:6] == ["ok", "experiment = covariance-ladder", "dimension = 6560",
                       "largest_block = 81", f"memory_estimate_mb = {doubles * 8 / 1e6:.1f}",
                       "runtime_class = seconds"]
    assert len(out) == 6


def test_validate_growth_reports_the_blocks_f0_touches(tmp_path, capsys):
    # a truncated-exponential growth (and auto on a cellular flow) decomposes
    # the symmetry sectors of the invariant blocks that f0 touches: in
    # configs/growth_cellular.ini, cos x lies in one 156-row block of
    # sin x sin y at N = 12, whose sectors have 84 and 72 rows.  shear-exact
    # builds none, and a block above DENSE_CAP stays sparse (the random flow's
    # one block of 4224 rows at N = 32), so it is not reported and not refused
    text = (CONFIGS / "growth_cellular.ini").read_text()
    assert "\nmethod = truncated-exponential\n" in text
    auto = write_config(tmp_path, text.replace("\nmethod = truncated-exponential\n", "\n"),
                        name="auto.ini")
    above = write_config(tmp_path, f"[experiment]\ntype = growth\nN = 32\n{RANDOM_FLOW}"
                         "[growth]\nT = 1.0\nf0 =\n    1 0 cos 1.0\n", name="above.ini")
    # seven doubles per b^2 (the sector, i s and its eigenvectors) and five
    # arrays of 401 time points per sector row (T = 4, h = 0.01)
    mb = (7 * 84**2 + 5 * 401 * 84) * 8 / 1e6
    for cfg, largest, mb in ((str(CONFIGS / "growth_cellular.ini"), 84, mb),
                             (auto, 84, mb),
                             (str(CONFIGS / "growth_shear.ini"), 0, 0.0),
                             (above, 0, 0.0)):
        assert main(["validate", "--config", cfg]) == 0
        out = capsys.readouterr().out.splitlines()
        assert f"largest_block = {largest}" in out
        assert f"memory_estimate_mb = {mb:.1f}" in out
        assert not any(line.startswith("warning") for line in out)


def test_covariance_ladder_warns_on_a_cellular_flow(tmp_path, capsys):
    # dist_to_Q0 measures the distance to the shear limit psi^2/(2 j^2); for
    # a cellular flow that is not its limit.  The payload does not change
    warning = ("warning: covariance-ladder: dist_to_Q0 is the distance to the shear limit "
               "psi^2/(2 j^2), not to the limit of this cellular flow")
    shear = Path(ladder_config(tmp_path, N=4)).read_text()
    cell = write_config(tmp_path, shear.replace(SHEAR_FLOW, CELL_FLOW), name="cell.ini")
    assert main(["validate", "--config", cell]) == 0
    assert warning in capsys.readouterr().out.splitlines()
    out = tmp_path / "cell"
    assert main(["run", "--config", cell, "--out", str(out)]) == 0
    assert warning in capsys.readouterr().err.splitlines()
    assert (out / "summary.csv").read_text().splitlines()[0] == (
        "nu,h1_trace,offblock_norm,dist_to_Q0")
    for cfg in [write_config(tmp_path, shear), *map(str, sorted(CONFIGS.glob("*.ini")))]:
        assert main(["validate", "--config", cfg]) == 0
        assert "warning" not in capsys.readouterr().out


@pytest.mark.parametrize("experiment", ["cellular-support", "spectrum"])
def test_run_refuses_a_block_above_dense_cap(tmp_path, experiment):
    cfg = (support_config(tmp_path, 32) if experiment == "cellular-support" else
           write_config(tmp_path, f"[experiment]\ntype = spectrum\nN = 32\n{RANDOM_FLOW}",
                        name="spectrum.ini"))
    out = tmp_path / "refused"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ValueError"
    assert "4224 rows exceeds the dimension cap 4000" in record["message"]


def test_shear_ladder_above_old_dimension_cap(tmp_path):
    # configs/covariance_ladder_shear.ini at N = 64 (n = 16,640): forced
    # blocks of 1 and 129 rows, a block export of well under 1 MB per nu
    text = (CONFIGS / "covariance_ladder_shear.ini").read_text()
    assert "\nN = 12\n" in text
    cfg = write_config(tmp_path, text.replace("\nN = 12\n", "\nN = 64\n"), name="ladder64.ini")
    out = tmp_path / "ladder64"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    spec = parse_spec(cfg)
    assert spec.dimension == 16640
    half = spec.noise.total_intensity / 2.0
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    assert len(rows) == len(spec.params["nu_ladder"])
    for i, (row, nu) in enumerate(zip(rows, spec.params["nu_ladder"])):
        assert abs(float(row.split(",")[1]) - half) <= 1e-10 * half
        path = out / f"covariance_{i:02d}.cov"
        assert path.stat().st_size < 1e6
        solved = lyapunov_covariance(generator(spec.flow, nu, 64), spec.noise)
        read = read_covariance(path)
        assert [len(idx) for idx, _ in read.blocks.blocks] == [1, 129]
        for (idx, block), (ridx, rblock) in zip(solved.blocks.blocks, read.blocks.blocks):
            assert np.array_equal(idx, ridx)
            assert np.array_equal(block.view(np.uint64), rblock.view(np.uint64))


def test_validate_no_dense_warning_for_sparse_experiments(tmp_path, capsys):
    # neither refuses n above the cap: SemiImplicitEM steps with the sparse
    # B, and the spectrum's invariant blocks of sin x sin y have about n / 4 rows
    spectrum = write_config(tmp_path, f"[experiment]\ntype = spectrum\nN = 40\n{CELL_FLOW}",
                            name="spectrum.ini")
    for cfg in (simulate_config(tmp_path, "SemiImplicitEM"), spectrum):
        assert main(["validate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok") and "warning" not in out


def test_covariance_ladder_outputs(tmp_path, capsys):
    cfg = ladder_config(tmp_path)
    out = tmp_path / "results"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "nu,h1_trace,offblock_norm,dist_to_Q0"
    rows = [line.split(",") for line in summary[1:]]
    assert len(rows) == 2
    for row in rows:
        assert float(row[1]) == pytest.approx(0.5, abs=1e-9)
        assert float(row[3]) < 1e-9  # pure k1 = 0 forcing: exact limit
    # one binary v3 export per nu, its H1 trace bit for bit the summary's
    assert sorted(p.name for p in out.glob("covariance_*")) == ["covariance_00.cov",
                                                                 "covariance_01.cov"]
    for i, row in enumerate(rows):
        assert (out / f"covariance_{i:02d}.cov").read_bytes().startswith(
            b"# torusmix covariance v3\n")
        assert h1_trace(read_covariance(out / f"covariance_{i:02d}.cov")) == float(row[1])
    assert (out / "eigenvalues_01.csv").exists()
    assert (out / "manifest.txt").exists()
    assert (out / "timestamps.txt").exists()


def test_reproducible_byte_identical_payloads(tmp_path):
    cfg = write_config(
        tmp_path,
        f"""
[experiment]
type = simulate
N = 4
{SHEAR_FLOW}
[noise]
modes =
    0 1 cos 1.0

[simulate]
nu = 0.1
scheme = ExactGaussian
dt = 0.5
horizon = 20.0
burn_in = 5.0
ensemble = 4
seed = 77
f0 =
""",
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("stats.csv", "empirical_covariance.cov", "eigenvalues.csv",
                 "manifest.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # timestamps live apart from the payload and may differ
    assert (out1 / "timestamps.txt").exists()


def test_seed_override_changes_results(tmp_path):
    cfg = write_config(
        tmp_path,
        f"""
[experiment]
type = simulate
N = 4
{SHEAR_FLOW}
[noise]
modes =
    0 1 cos 1.0

[simulate]
nu = 0.1
scheme = SemiImplicitEM
dt = 0.25
horizon = 10.0
burn_in = 2.0
ensemble = 2
seed = 1
f0 =
""",
    )
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2), "--seed", "999"]) == 0
    assert (out1 / "stats.csv").read_bytes() != (out2 / "stats.csv").read_bytes()
    assert "seed_override = 999" in (out2 / "manifest.txt").read_text()


def test_simulate_burn_in_defaults_to_five_efolds(tmp_path):
    cfg = write_config(
        tmp_path,
        f"""
[experiment]
type = simulate
N = 4
{SHEAR_FLOW}
[noise]
modes =
    0 1 cos 1.0

[simulate]
nu = 0.5
scheme = ExactGaussian
dt = 0.25
horizon = 20.0
ensemble = 2
seed = 3
f0 =
""",
    )
    out = tmp_path / "auto-burn"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert "simulate.burn_in = auto" in (out / "manifest.txt").read_text()
    # 5/nu = 10 of the 20 time units are burned: stats cover all times but
    # the covariance samples start after t = 10 (checked via sample count)
    lines = (out / "stats.csv").read_text().splitlines()
    assert len(lines) == 1 + 81  # header + horizon/dt + 1 rows


def test_spectrum_experiment(tmp_path):
    cfg = write_config(
        tmp_path,
        f"""
[experiment]
type = spectrum
N = 6
{CELL_FLOW}
""",
    )
    out = tmp_path / "spec"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "index,lambda"
    assert len(lines) == 1 + (2 * 6 + 1) ** 2 - 1
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "kernel_dim,dimension"


def test_run_computes_on_one_numpy_blas_thread(tmp_path, monkeypatch):
    if _numpy_blas_pool() is None:
        pytest.skip("numpy and scipy do not each bundle an OpenBLAS")
    get, put = _numpy_blas_pool()
    seen = []
    monkeypatch.setitem(cli.EXPERIMENTS, "spectrum", cli.EXPERIMENTS["spectrum"]._replace(
        run=lambda spec, outdir: seen.append(get())))
    cfg = write_config(tmp_path, f"[experiment]\ntype = spectrum\nN = 2\n{CELL_FLOW}")
    before = get()
    put(2)
    try:
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert get() == 2
    finally:
        put(before)
    assert seen == [1]


def test_growth_experiment_matches_closed_form(tmp_path):
    cfg = write_config(
        tmp_path,
        f"""
[experiment]
type = growth
N = 6
{SHEAR_FLOW}
[growth]
T = 1.0 3.0
method = shear-exact
h = 0.003
f0 =
    1 0 cos 1.0
""",
    )
    out = tmp_path / "growth"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "growth.csv").read_text().splitlines()[1:]
    values = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
    assert values[1.0] == pytest.approx(1 + 1 / 6, rel=1e-6)
    assert values[3.0] == pytest.approx(1 + 9 / 6, rel=1e-6)


def test_dissipation_probe_experiment(tmp_path):
    cfg = write_config(
        tmp_path,
        f"""
[experiment]
type = dissipation-probe
N = 8
{CELL_FLOW}
[dissipation-probe]
tau = 1.0
nu = 0.5 0.2
""",
    )
    out = tmp_path / "probe"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "probe.csv").read_text().splitlines()
    assert rows[0] == "nu,t,norm,heat_bound"
    for row in rows[1:]:
        nu, t, norm, bound = map(float, row.split(","))
        assert t == pytest.approx(1.0 / nu)
        assert norm < 1.0
        assert norm <= bound + 1e-8


def test_dissipation_probe_shear_config(tmp_path):
    # configs/dissipation_probe_shear.ini: the x-independent mode (0, 1) is
    # invariant and decays at the heat bound, so the norm is e^-tau on every
    # row, although the x-dependent sectors fall below 1e-160
    cfg = CONFIGS / "dissipation_probe_shear.ini"
    spec = parse_spec(cfg)
    out = tmp_path / "probe"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "probe.csv").read_text().splitlines()[1:]
    assert len(rows) == len(spec.params["nu_ladder"]) == 3
    tau = spec.params["tau"]
    for row, nu in zip(rows, spec.params["nu_ladder"]):
        _, t, norm, bound = map(float, row.split(","))
        assert t == tau / nu
        assert norm == pytest.approx(math.exp(-tau), rel=1e-12, abs=0)
        assert bound == pytest.approx(math.exp(-tau), rel=1e-12, abs=0)


def test_cellular_support_experiment(tmp_path):
    cfg = write_config(
        tmp_path,
        f"""
[experiment]
type = cellular-support
N = 8
{CELL_FLOW}
[noise]
modes =
    0 1 cos 1.0
    1 0 cos 1.0
    1 1 cos 1.0
    1 -1 cos 1.0

[cellular-support]
nu = 0.1 0.05
bins = 32
grid = 128
""",
    )
    out = tmp_path / "support"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "support.csv").read_text().splitlines()
    assert rows[0] == "nu,top_eigenvalue,rel_deviation,idempotence_deviation"
    assert len(rows) == 3
    for row in rows[1:]:
        vals = list(map(float, row.split(",")))
        assert vals[1] > 0 and 0 <= vals[2] <= 2.0


def test_cellular_support_deviations_are_basis_free():
    # an exactly degenerate top eigenspace: a rotated basis, or Q with the
    # pair split by round-off either way, leaves both columns unchanged
    N, bins, grid = 6, 32, 64
    flow = default_cellular_flow()
    n = mode_table(N).size
    rng = np.random.default_rng(3)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    c, s = math.cos(0.7), math.sin(0.7)
    R = U.copy()
    R[:, -2:] = U[:, -2:] @ np.array([[c, -s], [s, c]])
    basis = [FourierField(N, U[:, j]) for j in (-2, -1)]
    project = _streamline_projector(flow, bins, grid)
    want = _streamline_deviations(project, basis)
    rotated = [FourierField(N, R[:, j]) for j in (-2, -1)]
    assert _streamline_deviations(project, rotated) == pytest.approx(want, rel=1e-12)
    lam = np.linspace(0.1, 0.5, n)
    for V, split in ((U, 1e-14), (R, -1e-14), (R, 0.0)):
        lam[-2:] = 1.0, 1.0 + split
        top, cluster = _top_eigenspace(CovarianceOperator(N, (V * lam) @ V.T))
        assert len(cluster) == 2 and top == pytest.approx(1.0, rel=1e-13)
        got = _streamline_deviations(project, cluster)
        assert got == pytest.approx(want, rel=1e-12)
    # a simple top eigenvalue: the deviations of its unit eigenvector
    lam[-2:] = 0.9, 1.0
    top, cluster = _top_eigenspace(CovarianceOperator(N, (U * lam) @ U.T))
    assert len(cluster) == 1
    v = FourierField(N, U[:, -1])
    pv = streamline_projection(flow, v, bins=bins, grid=grid)
    ppv = streamline_projection(flow, pv, bins=bins, grid=grid)
    one = ((v - pv).norm(0) / v.norm(0), (pv - ppv).norm(0) / pv.norm(0))
    assert _streamline_deviations(project, cluster) == pytest.approx(one, rel=1e-12)


def test_cellular_support_rejects_shear(tmp_path):
    cfg = write_config(
        tmp_path,
        f"""
[experiment]
type = cellular-support
N = 8
{SHEAR_FLOW}
[noise]
modes =
    0 1 cos 1.0

[cellular-support]
nu = 0.1
""",
    )
    with pytest.raises(ConfigError, match="cellular"):
        parse_spec(cfg)


def test_unknown_experiment_type(tmp_path):
    cfg = write_config(
        tmp_path,
        """
[experiment]
type = frobnicate
N = 4
""",
    )
    with pytest.raises(ConfigError, match="experiment.type"):
        parse_spec(cfg)


def test_error_record_written_for_numerical_failure(tmp_path, capsys):
    # ExactGaussian with a forced block above the dense cap must fail with a
    # machine-readable record
    cfg = simulate_config(tmp_path, "ExactGaussian", N=32, flow=RANDOM_FLOW)
    out = tmp_path / "fail"
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 3
    record = json.loads((out / "error.json").read_text())
    assert "4224 rows exceeds the dimension cap 4000" in record["message"]


def test_manifest_records_flow_and_noise(tmp_path):
    cfg = ladder_config(tmp_path)
    out = tmp_path / "man"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text()
    assert "flow.kind = shear" in manifest
    assert "noise.modes = 0 1 cos 1" in manifest
    assert "torusmix_version" in manifest
    assert "rng_algorithm" in manifest


def _simulate_config(body, nu=0.1):
    return f"""
[experiment]
type = simulate
N = 4
{SHEAR_FLOW}
[noise]
modes =
    0 1 cos 1.0

[simulate]
nu = {nu}
seed = 1
burn_in = 0.0
{body}
"""


def _growth_config(body, flow=SHEAR_FLOW):
    return f"""
[experiment]
type = growth
N = 6
{flow}
[growth]
f0 =
    1 0 cos 1.0
{body}
"""


def _probe_config(body):
    return f"""
[experiment]
type = dissipation-probe
N = 8
{CELL_FLOW}
[dissipation-probe]
{body}
"""


def _forced_config(experiment, body):
    return f"""
[experiment]
type = {experiment}
N = 8
{CELL_FLOW}
[noise]
modes =
    0 1 cos 1.0

[{experiment}]
{body}
"""


# keyed by the field each message must name, then " = <the bad value>"
# where one field has several
BAD_SCALARS = {
    "growth.h": _growth_config("T = 1.0\nh = abc"),
    "growth.h = 0": _growth_config("T = 1.0\nh = 0"),
    "growth.h = -1": _growth_config("T = 1.0\nh = -1"),
    "growth.h = nan": _growth_config("T = 1.0\nh = nan"),
    "growth.T = inf": _growth_config("T = 1.0 inf\nh = 0.01"),
    "growth.method = foo": _growth_config("T = 1.0\nmethod = foo"),
    "growth.method = shear-exact": _growth_config("T = 1.0\nmethod = shear-exact", CELL_FLOW),
    "dissipation-probe.tau": _probe_config("tau = abc\nnu = 0.5"),
    "dissipation-probe.tau = nan": _probe_config("tau = nan\nnu = 0.5"),
    "dissipation-probe.nu = inf": _probe_config("tau = 1.0\nnu = 0.5 inf"),
    "covariance-ladder.nu = nan": _forced_config("covariance-ladder", "nu = 0.1 nan"),
    "covariance-ladder.nu = inf": _forced_config("covariance-ladder", "nu = inf 0.1"),
    "cellular-support.nu = nan": _forced_config("cellular-support", "nu = nan"),
    "cellular-support.nu = inf": _forced_config("cellular-support", "nu = inf"),
    "cellular-support.bins = 2000": _forced_config("cellular-support",
                                                   "nu = 0.1\nbins = 2000\ngrid = 32"),
    "noise = nan": _forced_config("covariance-ladder", "nu = 0.1").replace("cos 1.0", "cos nan"),
    "simulate.nu = nan": _simulate_config("dt = 0.1\nhorizon = 1.0\nensemble = 2", nu="nan"),
    "simulate.nu = inf": _simulate_config("dt = 0.1\nhorizon = 1.0\nensemble = 2", nu="inf"),
    "simulate.s = nan": _simulate_config("dt = 0.1\nhorizon = 1.0\nensemble = 2\ns = nan"),
    # SimConfig's own checks, reported by validate as well as run
    "simulate: s = 0": _simulate_config("dt = 0.1\nhorizon = 1.0\nensemble = 2\ns = 0"),
    "simulate: dt": _simulate_config("dt = -0.1\nhorizon = 1.0\nensemble = 2"),
    "simulate: ensemble": _simulate_config("dt = 0.1\nhorizon = 1.0\nensemble = 0"),
    "simulate: horizon": _simulate_config("dt = 0.3\nhorizon = 1.0\nensemble = 2"),
    "covariance-ladder.nu": _forced_config("covariance-ladder", "nu = 0.2\nnu = 0.1"),
    "cellular-support.bins": _forced_config("cellular-support", "nu = 0.1\nbins = many"),
    "cellular-support.grid": _forced_config("cellular-support", "nu = 0.1\ngrid = 12.5"),
    # the default grid 256 cannot resolve a streamfunction of order 200
    "cellular-support.grid = 256": _forced_config("cellular-support", "nu = 0.1").replace(
        "streamfunction_N = 2", "streamfunction_N = 200"),
}


@pytest.mark.parametrize("case", sorted(BAD_SCALARS))
def test_bad_config_value_is_config_error(tmp_path, capsys, case):
    cfg = write_config(tmp_path, BAD_SCALARS[case])
    field = case.partition(" = ")[0]
    assert main(["validate", "--config", cfg]) == 1
    out = capsys.readouterr().out
    assert "invalid" in out and field in out
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError"
    assert any(field in problem for problem in record["fields"])


def test_unknown_key_in_experiment_section_warns(tmp_path, capsys):
    # keys compare lowercased (configparser stores T as t); [experiment]
    # accepts keys it does not use, such as the benchmark's threads
    text = _growth_config("T = 1.0\nbin = 32").replace("N = 6\n", "N = 6\nthreads = 2\n")
    cfg = write_config(tmp_path, text)
    assert main(["validate", "--config", cfg]) == 0
    warnings = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("warning:")]
    assert warnings == ["warning: growth.bin: unknown key, ignored"]
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert "warning: growth.bin: unknown key, ignored" in capsys.readouterr().err


@pytest.mark.parametrize("flow,extra,warning", [
    (SHEAR_FLOW, "streamfunction_N = 2\n", "flow.streamfunction_n"),
    (CELL_FLOW, "profile =\n    0 1 sin 1.0\n", "flow.profile"),
    (CELL_FLOW + "mode = 1\n", "", "flow.mode"),
], ids=["streamfunction-on-shear", "profile-on-cellular", "typo"])
def test_unknown_key_in_flow_section_warns(tmp_path, capsys, flow, extra, warning):
    # the keys [flow] takes depend on its kind
    cfg = write_config(tmp_path, _growth_config("T = 1.0", flow=flow + extra))
    assert main(["validate", "--config", cfg]) == 0
    warnings = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("warning:")]
    assert warnings == [f"warning: {warning}: unknown key, ignored"]


def test_unknown_key_in_noise_section_warns(tmp_path, capsys):
    cfg = ladder_config(tmp_path, noise="0 1 cos 1.0\nmode = 0 2 cos 1.0")
    assert main(["validate", "--config", cfg]) == 0
    warnings = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("warning:")]
    assert warnings == ["warning: noise.mode: unknown key, ignored"]


def test_rejected_config_leaves_error_json(tmp_path, capsys, monkeypatch):
    # run writes the ConfigError record it prints to <out>/error.json, with
    # out from --out or else from the config's own [experiment] out
    text = BAD_SCALARS["growth.h"]
    out = tmp_path / "given"
    assert main(["run", "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError"
    assert json.loads((out / "error.json").read_text()) == record
    keyed = tmp_path / "keyed"
    cfg = write_config(tmp_path, text.replace("[experiment]\n", f"[experiment]\nout = {keyed}\n"),
                       name="keyed.ini")
    assert main(["run", "--config", cfg]) == 2
    assert json.loads((keyed / "error.json").read_text()) == json.loads(
        capsys.readouterr().err.strip())
    # no out anywhere: the record goes to stderr only
    cfg = write_config(tmp_path, "[experiment]\ntype = growth\n", name="bare.ini")
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", cfg]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"
    assert not (tmp_path / "torusmix-out").exists()


def test_unused_noise_section_warns(tmp_path, capsys):
    text = (CONFIGS / "spectrum_cellular.ini").read_text() + "\n[noise]\nmodes =\n    0 1 cos 1\n"
    cfg = write_config(tmp_path, text, name="spectrum.ini")
    warning = "warning: noise: section not used by spectrum, ignored"
    assert main(["validate", "--config", cfg]) == 0
    assert warning in capsys.readouterr().out.splitlines()
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert warning in capsys.readouterr().err.splitlines()
    assert "noise.modes = 0 1 cos 1" in (out / "manifest.txt").read_text()


@pytest.mark.parametrize("experiment, N, flow", [
    ("cellular-support", 12, RANDOM_FLOW),       # one block of 624 rows
    ("covariance-ladder", 12, CELL_FLOW),        # four blocks of 154 and 156 rows
], ids=["cellular-support", "covariance-ladder"])
def test_validate_memory_estimate_matches_traced_peak(tmp_path, capsys, experiment, N, flow):
    # the stored blocks of Q plus the two working arrays of the largest solve
    cfg = write_config(tmp_path, f"""
[experiment]
type = {experiment}
N = {N}
{flow}
[noise]
modes =
    0 1 cos 1.0
    1 0 sin 1.0
    1 1 cos 1.0
    1 -1 sin 1.0

[{experiment}]
nu = 0.1 0.05
""")
    estimate, peak = _estimate_and_traced_peak(tmp_path, capsys, cfg)
    assert abs(peak - estimate) <= 0.25 * peak


def _estimate_and_traced_peak(tmp_path, capsys, cfg) -> tuple:
    """(validate's memory_estimate_mb, the tracemalloc peak of a run), in bytes."""
    assert main(["validate", "--config", cfg]) == 0
    line = next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith("memory_estimate_mb = "))
    spec = cli.parse_spec(cfg)
    spec.out = tmp_path / "out"
    cli.run(spec)    # fills the caches
    tracemalloc.start()
    try:
        cli.run(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return float(line.partition(" = ")[2]) * 1e6, peak


_FOUR_MODES = "[noise]\nmodes =\n    0 1 cos 1.0\n    1 0 sin 1.0\n    1 1 cos 1.0\n"


# one small run of each experiment that builds dense blocks
_SMALL_DENSE_RUNS = {
    # one block of 288 rows: Van Loan's 576 x 576 exponential
    "simulate": f"N = 8\n{RANDOM_FLOW}{_FOUR_MODES}[simulate]\nnu = 0.1\n"
                "scheme = ExactGaussian\ndt = 0.5\nhorizon = 1.0\nburn_in = 0.0\n"
                "ensemble = 2\nseed = 0\nf0 =\n",
    # one block of 288 rows, complex
    "spectrum": f"N = 8\n{RANDOM_FLOW}",
    # 64 members on one block of 288 rows: the co-moments and sample windows
    "simulate-64": f"N = 8\n{RANDOM_FLOW}{_FOUR_MODES}[simulate]\nnu = 0.1\n"
                   "scheme = SemiImplicitEM\ndt = 0.5\nhorizon = 1.0\nburn_in = 0.0\n"
                   "ensemble = 64\nseed = 0\nf0 =\n",
    "growth": f"N = 8\n{RANDOM_FLOW}[growth]\nT = 1.0\nmethod = truncated-exponential\n"
              "h = 0.1\nf0 =\n    1 0 cos 1.0\n",
    # sin x sin y at N = 16: sectors of up to 144 rows
    "dissipation-probe": f"N = 16\n{CELL_FLOW}[dissipation-probe]\ntau = 1.0\nnu = 0.1\n",
    # forced blocks of 154, 156 and 156 rows; one of 624
    "covariance-ladder": f"N = 12\n{CELL_FLOW}{_FOUR_MODES}[covariance-ladder]\nnu = 0.1\n",
    "cellular-support": f"N = 12\n{RANDOM_FLOW}{_FOUR_MODES}[cellular-support]\nnu = 0.1\n",
}


@pytest.mark.parametrize("experiment", _SMALL_DENSE_RUNS)
def test_validate_memory_estimate_within_twice_the_traced_peak(tmp_path, capsys, experiment):
    # the blocks a run stores and the working set of its largest one
    cfg = write_config(tmp_path, f"[experiment]\ntype = {experiment.removesuffix('-64')}\n"
                       f"{_SMALL_DENSE_RUNS[experiment]}")
    estimate, peak = _estimate_and_traced_peak(tmp_path, capsys, cfg)
    assert 0.5 * peak <= estimate <= 2.0 * peak


def test_exact_gaussian_refuses_a_van_loan_matrix_above_the_cap(tmp_path, capsys):
    # the random flow's one block of 2208 rows at N = 23 is under the cap,
    # but its Van Loan matrix has 4416 rows: validate warns, run refuses
    cfg = simulate_config(tmp_path, "ExactGaussian", N=23, flow=RANDOM_FLOW)
    assert main(["validate", "--config", cfg]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "largest_block = 2208" in out
    assert ("warning: the Van Loan matrix of a block of 2208 rows has 4416 rows, above the "
            "dimension cap 4000; the run will be refused") in out
    out = tmp_path / "refused"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    record = json.loads((out / "error.json").read_text())
    assert "dense block of 4416 rows exceeds the dimension cap 4000" in record["message"]
