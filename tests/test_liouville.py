import dataclasses
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emdyn import circuit, liouville, opcore
from emdyn.errors import (BadEigenindex, DimMismatch, NonPhysicalResult,
                          NotDensityMatrix, NotHermitian, NumericalError,
                          ValidationError)

from conftest import (build_full_generator, cascaded_generator,
                      dense_expm_oracle, expanded_generator,
                      hamiltonian_superop, kron_dissipator, kron_superop,
                      left_superop, rand_density, rand_hermitian,
                      reduced_s1_generator, working_point)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)
P0 = np.diag([1.0, 0.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


def make_coupling(gamma=10.0, eta=1.0, phi=np.pi / 2, g=0.0, A=SZ, B=SX):
    return liouville.DissipativeCoupling(A=A, B=B, gamma=gamma, eta=eta,
                                         phi=phi, g=g)


def test_coupling_validation():
    with pytest.raises(ValidationError):
        make_coupling(gamma=-1.0)
    with pytest.raises(ValidationError):
        make_coupling(eta=-0.5)
    with pytest.raises(ValidationError):
        make_coupling(gamma=0.0, eta=1.0)  # dissipative drive needs damping
    # gamma = 0 is fine when the channel is off entirely
    c = make_coupling(gamma=0.0, eta=0.0, g=0.3)
    assert c.gamma == 0.0
    with pytest.raises(ValidationError):
        c.jump_operator()


@pytest.mark.parametrize("field, value", [
    ("gamma", np.nan), ("gamma", np.inf), ("eta", np.nan), ("eta", np.inf),
    ("phi", np.nan), ("g", np.nan), ("g", -np.inf)])
def test_coupling_rejects_non_finite_rates(field, value):
    with pytest.raises(ValidationError, match="finite"):
        make_coupling(**{field: value})


@pytest.mark.parametrize("dims", [(2.5, 2), (True, 2), (0, 2), (), [2, 2],
                                  (np.int64(2), 2.0)],
                         ids=["float", "bool", "zero", "empty", "list",
                              "numpy-and-float"])
def test_master_equation_dims_checked(dims):
    """Each factor is a positive int or NumPy integer, in a non-empty tuple;
    nothing is truncated (``(2.9, 2)`` once passed as 2 ⊗ 2)."""
    with pytest.raises(DimMismatch, match="dims"):
        liouville.MasterEquation(np.eye(4), (), dims)
    me = liouville.MasterEquation(np.eye(4), (), (np.int64(2), 2))
    assert me.dims == (2, 2) and type(me.dims[0]) is int


@pytest.mark.parametrize("operator", ["Hamiltonian", "jump"])
def test_master_equation_rejects_wrong_shapes(operator):
    h, jumps = (np.eye(3), ()) if operator == "Hamiltonian" else (
        SZ, ((np.eye(3), 1.0),))
    with pytest.raises(DimMismatch, match=f"{operator} shape"):
        liouville.MasterEquation(h, jumps, (2,))


@pytest.mark.parametrize("rate", [np.nan, np.inf, -1.0])
def test_master_equation_rejects_bad_rates(rate):
    with pytest.raises(ValidationError, match="jump rate"):
        liouville.MasterEquation(SZ, ((SX, rate),), (2,))


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("operator", ["Hamiltonian", "jump 1"])
def test_master_equation_rejects_non_finite_operators(operator, value):
    h, jumps = SZ.copy(), [(SX, 1.0), (SZ.copy(), 1.0)]
    (h if operator == "Hamiltonian" else jumps[1][0])[0, 0] = value
    with pytest.raises(ValidationError, match=operator):
        liouville.MasterEquation(h, tuple(jumps), (2,))


def test_eta_at_or_above_gamma_warns():
    with pytest.warns(UserWarning):
        make_coupling(gamma=1.0, eta=2.0)


def test_jump_operator_form():
    c = make_coupling(gamma=4.0, eta=1.0, phi=0.3)
    L = c.jump_operator()
    want = 2.0 * (np.kron(SZ, I2)
                  - (1.0 / 4.0) * np.exp(1j * 0.3) * np.kron(I2, SX))
    npt.assert_allclose(L, want, atol=1e-14)
    # on broadcast eigenvalue arrays the same formula gives L's eigenvalues
    pm = np.array([1.0, -1.0])
    npt.assert_allclose(
        np.sort_complex(np.linalg.eigvals(L)),
        np.sort_complex(c.jump(pm[:, None], pm[None, :]).reshape(-1)),
        atol=1e-12)


def test_expanded_generator_matches_direct(rng):
    for _ in range(10):
        c = make_coupling(gamma=float(rng.uniform(0.5, 20)),
                          eta=float(rng.uniform(0, 1.5)) * 0.4,
                          phi=float(rng.uniform(-np.pi, np.pi)),
                          A=rand_hermitian(rng, 2), B=rand_hermitian(rng, 2))
        direct = build_full_generator(c, include_coherent=False)
        expanded = expanded_generator(c, include_coherent=False)
        npt.assert_allclose(expanded, direct, atol=1e-12)


def test_generator_includes_coherent_term():
    c = make_coupling(g=0.7)
    g_with = build_full_generator(c)
    g_without = build_full_generator(c, include_coherent=False)
    h = 0.7 * np.kron(SZ, SX)
    npt.assert_allclose(g_with - g_without, hamiltonian_superop(h),
                        atol=1e-13)


def test_pure_dephasing_rate():
    # gamma D[sz] on one qubit: coherences decay as exp(-2 gamma t)
    gamma, t = 0.8, 0.6
    gen = gamma * kron_dissipator(SZ)
    rho = liouville.propagate(gen, PLUS, t)
    assert abs(rho[0, 1] - 0.5 * np.exp(-2 * gamma * t)) < 1e-12


def test_propagate_guards():
    gen = kron_dissipator(SZ)
    with pytest.raises(ValidationError):
        liouville.propagate(gen, PLUS, -0.1)
    out = liouville.propagate(gen, PLUS, 0.0)
    npt.assert_array_equal(out, PLUS)
    assert out is not PLUS


@pytest.mark.parametrize("t", [np.nan, np.inf])
@pytest.mark.parametrize("model", ["coupling", "master", "dense"])
def test_propagate_rejects_non_finite_time(model, t):
    c = make_coupling()
    model = {"coupling": c,
             "master": liouville.MasterEquation(
                 c.coherent_hamiltonian(), ((c.jump_operator(), 1.0),),
                 (c.d1, c.d2)),
             "dense": build_full_generator(c)}[model]
    with pytest.raises(ValidationError, match="finite"):
        liouville.propagate(model, np.kron(PLUS, P0), t)


def test_propagate_is_trace_preserving_and_positive(rng):
    c = make_coupling(gamma=3.0, eta=0.9, g=0.4)
    gen = build_full_generator(c)
    rho0 = np.kron(rand_density(rng, 2), rand_density(rng, 2))
    rho = liouville.propagate(gen, rho0, 2.0)
    assert abs(np.trace(rho) - 1) < 1e-10
    assert np.linalg.eigvalsh(rho).min() > -1e-9


@st.composite
def coupling_cases(draw):
    """A random coupling, product state and time for the differential test.

    Regimes: ``eta < gamma``, ``eta >= gamma``, and the purely coherent
    ``gamma = eta = 0`` with ``g != 0``.  ``degenerate`` rebuilds A and B
    with repeated eigenvalues.  ``gamma t`` reaches about 1e4.
    """
    d1, d2 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A, B = rand_hermitian(rng, d1), rand_hermitian(rng, d2)
    if draw(st.booleans()):
        A, B = (v @ np.diag(rng.choice([-1.0, 0.0, 2.0], size=len(w)))
                @ v.conj().T
                for w, v in (np.linalg.eigh(A), np.linalg.eigh(B)))
    regime = draw(st.sampled_from(["eta<gamma", "eta>=gamma", "coherent"]))
    g = draw(st.floats(-2.0, 2.0))
    if regime == "coherent":
        gamma = eta = 0.0
        g = g or 1.0
    else:
        gamma = 10 ** draw(st.floats(-1.0, 3.0))
        ratio = (draw(st.floats(0.0, 0.99)) if regime == "eta<gamma"
                 else draw(st.floats(1.0, 3.0)))
        eta = ratio * gamma
    t = draw(st.sampled_from([0.0, 1e-3, 0.5, 2.0, 1e4 / max(gamma, 1.0)]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # eta >= gamma is flagged
        c = liouville.DissipativeCoupling(
            A=A, B=B, gamma=gamma, eta=eta,
            phi=draw(st.floats(-np.pi, np.pi)), g=g)
    return c, np.kron(rand_density(rng, d1), rand_density(rng, d2)), t


def _large_norm_t_case():
    """A coherent generator at ``‖t G‖₁ ≈ 1e5`` where SciPy's real ``expm``
    errs by 2.9e-10 (its complex ``expm`` by 7e-12)."""
    b01 = -1.0427995064746918 - 1.4138832933175767j
    B = np.array([[0.7867320840655172, b01], [b01.conjugate(),
                                              -1.1864298772188848]])
    r01 = 0.21404330936637428 - 0.40204767591682156j
    rho0 = np.array([[0.3505480026555183, r01],
                     [r01.conjugate(), 0.6494519973444818]])
    c = liouville.DissipativeCoupling(A=np.array([[-0.8078]]), B=B,
                                      gamma=1.0, eta=0.0, g=2.0)
    return c, rho0, 1e4


@settings(max_examples=150, deadline=None)
@given(coupling_cases())
@example(_large_norm_t_case())
def test_closed_form_matches_dense_route(case):
    c, rho0, t = case
    got = liouville.propagate(c, rho0, t)
    gen = build_full_generator(c)
    assert np.max(np.abs(got - dense_expm_oracle(gen, rho0, t))) <= 1e-10
    assert np.max(np.abs(got - liouville.propagate(gen, rho0, t))) <= 1e-10
    assert np.max(np.abs(got - got.conj().T)) <= 1e-12
    assert abs(np.trace(got) - 1.0) <= 1e-10
    assert np.linalg.eigvalsh(got).min() >= -opcore.POSITIVITY_TOL


@st.composite
def master_equation_cases(draw):
    """A random Lindblad generator (H plus one or two jumps), state and time.

    Rates reach 1e3; the state is a random density matrix or the
    non-Hermitian ``|0><1|`` (``|0><0|`` when d = 1).
    """
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    jumps = tuple(
        (rand_hermitian(rng, d) + 1j * rand_hermitian(rng, d),
         10 ** draw(st.floats(-2.0, 3.0)))
        for _ in range(draw(st.integers(1, 2))))
    me = liouville.MasterEquation(rand_hermitian(rng, d), jumps,
                                  (d,))
    if draw(st.booleans()):
        rho0 = rand_density(rng, d)
    else:
        rho0 = np.zeros((d, d), dtype=complex)
        rho0[0, min(1, d - 1)] = 1.0
    return me.generator(), rho0, draw(st.sampled_from([0.0, 1e-3, 1.0, 50.0]))


@settings(max_examples=150, deadline=None)
@given(master_equation_cases())
def test_hermitian_basis_route_matches_oracle(case):
    gen, rho0, t = case
    want = dense_expm_oracle(gen, rho0, t)
    assert np.max(np.abs(liouville._evolve_real_basis(gen, rho0, t) - want)
                  ) <= 1e-10
    if opcore.is_hermitian(rho0):
        assert np.max(np.abs(liouville.propagate(gen, rho0, t) - want)
                      ) <= 1e-10


def test_route_keeps_trace_at_large_norm_t(rng):
    # ‖t G‖ ≈ 1e6: some 20 squarings, which double an unpinned trace error
    # each time (to 1e-11 and beyond); with the trace pinned it stays at u.
    for d in (2, 5, 6):
        jumps = tuple((rand_hermitian(rng, d) + 1j * rand_hermitian(rng, d),
                       1e3) for _ in range(2))
        gen = liouville.MasterEquation(rand_hermitian(rng, d), jumps,
                                       (d,)).generator()
        out = liouville._evolve_real_basis(gen, rand_density(rng, d), 50.0)
        assert abs(np.trace(out) - 1.0) <= 1e-13


def n_real_blocks(gen):
    """Number of blocks the route splits ``gen`` into (in the real basis)."""
    d = int(round(np.sqrt(gen.shape[0])))
    return len(np.unique(liouville._components(
        liouville._real_generator(gen, d))))


@st.composite
def block_structured_cases(draw):
    """A system ⊗ mode generator with exact invariant blocks, state and time.

    ``diagonal``: random real diagonal system operators couple to random
    mode quadratures; ``sx``: Pauli-X strings on one to three qubits, which
    commute and keep qubit parities; ``jrm``: the ring-modulator builder at
    ``n_max = 2``.  The mode is damped, sometimes with system dephasing;
    the other kinds stay at most 256 wide.
    The state is a random density matrix (every block) or a random state
    inside one invariant sector of system levels ⊗ vacuum (some blocks).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # the 576-wide ring-modulator oracle is the slow one: draw it less often
    kind = draw(st.sampled_from(["diagonal", "diagonal", "sx", "sx", "jrm"]))
    if kind == "jrm":
        params = working_point(gamma_z=draw(st.floats(5.0, 75.0)), n_max=2)
        phi = draw(st.sampled_from([np.pi / 2, -np.pi / 2]))
        tones = circuit.plan_dissipative_tones(
            params.Omega, 12.0, 0.0, (0.0, np.pi + phi, np.pi + phi))
        me = circuit.build_jrm_effective(
            params, tones, include_three_body=draw(st.booleans()))
        ds, dm = 8, 3
    else:
        n_q = draw(st.integers(1, 3)) if kind == "sx" else 1
        ds = 2 ** n_q if kind == "sx" else draw(st.integers(2, 4))
        dm = draw(st.integers(2, 16 // ds))
        if kind == "sx":
            strings = [opcore.tensor([SX if (m >> q) & 1 else I2
                                      for q in range(n_q)])
                       for m in range(1, 2 ** n_q)]
            sys_ops = [strings[k] for k in rng.choice(
                len(strings), size=min(2, len(strings)), replace=False)]
        else:
            sys_ops = [np.diag(rng.normal(size=ds)) for _ in range(2)]
        a = circuit.lowering(dm - 1)
        h = sum(rng.uniform(0.1, 3.0) * np.kron(op, circuit.quadrature(
            a, rng.uniform(0, 2 * np.pi))) for op in sys_ops)
        jumps = [(np.kron(np.eye(ds), a), 10 ** draw(st.floats(-1.0, 2.0)))]
        if draw(st.booleans()):
            jumps.append((np.kron(sys_ops[0], np.eye(dm)), 0.3))
        me = liouville.MasterEquation(h, tuple(jumps),
                                      (ds, dm))
    if draw(st.booleans()):
        rho0 = rand_density(rng, ds * dm)
    else:
        # the system levels that the Hamiltonian and jumps connect to a
        # random level form an invariant sector
        links = sum(np.abs(op.reshape(ds, dm, ds, dm)).sum(axis=(1, 3))
                    for op in (me.hamiltonian, *(j for j, _ in me.jumps)))
        lab = liouville._components(links)
        sector = np.flatnonzero(lab == lab[rng.integers(ds)])
        rho_s = np.zeros((ds, ds), dtype=complex)
        rho_s[np.ix_(sector, sector)] = rand_density(rng, len(sector))
        rho0 = np.kron(rho_s, circuit.fock_vacuum(dm))
    return me.generator(), rho0, draw(st.sampled_from([0.0, 1e-3, 1.0, 50.0]))


@settings(max_examples=40, deadline=None)
@given(block_structured_cases())
def test_block_route_matches_oracle(case):
    gen, rho0, t = case
    assert n_real_blocks(gen) > 1
    want = dense_expm_oracle(gen, rho0, t)
    assert np.max(np.abs(liouville._evolve_real_basis(gen, rho0, t) - want)
                  ) <= 1e-10
    assert np.max(np.abs(liouville.propagate(gen, rho0, t) - want)) <= 1e-10


@st.composite
def component_models(draw):
    """A model block diagonal over a random partition of its d levels.

    The parts (a single part is the dense case) are scattered over the
    levels by a random permutation.  ``H`` and one or two jumps are random
    inside each part; one more jump is dense with rate 0, so it must not
    join the parts.  The state is a random density matrix (every component
    pair) or one supported on a random subset of the parts (some pairs).
    Also returns ``H`` plus two non-Hermitian block-diagonal terms.
    """
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cuts = rng.choice(np.arange(1, d), size=draw(st.integers(0, d - 1)),
                      replace=False)
    parts = np.split(rng.permutation(d), np.sort(cuts))

    def block_diagonal(make):
        op = np.zeros((d, d), dtype=complex)
        for part in parts:
            op[np.ix_(part, part)] = make(len(part))
        return op

    def rand_op(n):
        return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

    h = block_diagonal(lambda n: rand_hermitian(rng, n))
    jumps = [(block_diagonal(rand_op), 10 ** draw(st.floats(-2.0, 2.0)))
             for _ in range(draw(st.integers(1, 2)))]
    jumps.append((rand_op(d), 0.0))
    me = liouville.MasterEquation(h, tuple(jumps), (d,))
    if draw(st.booleans()):
        rho0 = rand_density(rng, d)
    else:
        kept = [part for part in parts if rng.random() < 0.5] or parts[:1]
        sub = np.concatenate(kept)
        rho0 = np.zeros((d, d), dtype=complex)
        rho0[np.ix_(sub, sub)] = rand_density(rng, len(sub))
    # anti-Hermitian terms: a random one in each part, and one multiple of
    # the identity per part, which no diagonal block of the route can see
    bad = [h + 1j * block_diagonal(lambda n: rand_hermitian(rng, n)),
           h + 1j * block_diagonal(lambda n: rng.normal() * np.eye(n))]
    return me, bad, rho0, draw(st.sampled_from([0.0, 1e-3, 1.0, 50.0]))


@st.composite
def rotated_models(draw):
    """A model on ds ⊗ dm whose leading parts commute but are not diagonal,
    or, sometimes, do not commute.

    In the basis ``V ⊗ 1`` (``V`` a random unitary on the leading factor)
    ``H`` and one or two jumps are ``Σ_k |k><k| ⊗ M_k``, with some leading
    levels sharing their ``M_k``, so their leading parts are merged
    eigenspaces; one more dense jump has rate 0.  The non-commuting kind
    adds ``X ⊗ M`` to ``H`` for a random Hermitian ``X`` and ``M``.  The
    state is a random density matrix or a product with the mode's ground
    state; ``bad`` is ``H`` plus a non-Hermitian term.
    """
    ds, dm = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    v = np.linalg.qr(rng.normal(size=(ds, ds))
                     + 1j * rng.normal(size=(ds, ds)))[0]
    level = rng.integers(0, ds, size=ds)    # levels that share an operator

    def diagonal_in_v(make):
        ms = [make(dm) for _ in range(ds)]
        return sum(np.kron(np.outer(v[:, k], v[:, k].conj()), ms[level[k]])
                   for k in range(ds))

    def rand_op(n):
        return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

    h = diagonal_in_v(lambda n: rand_hermitian(rng, n))
    if draw(st.booleans()):
        h = h + np.kron(rand_hermitian(rng, ds), rand_hermitian(rng, dm))
    jumps = [(diagonal_in_v(rand_op), 10 ** draw(st.floats(-2.0, 2.0)))
             for _ in range(draw(st.integers(1, 2)))]
    jumps.append((rand_op(ds * dm), 0.0))
    me = liouville.MasterEquation(h, tuple(jumps),
                                  (ds, dm))
    rho0 = (rand_density(rng, ds * dm) if draw(st.booleans()) else
            np.kron(rand_density(rng, ds), circuit.fock_vacuum(dm)))
    bad = [h + 1j * np.kron(rand_hermitian(rng, ds), np.eye(dm))]
    return me, bad, rho0, draw(st.sampled_from([0.0, 1e-3, 1.0, 50.0]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(component_models(), rotated_models()))
def test_master_equation_route_matches_oracle(case):
    me, bad, rho0, t = case
    got = liouville.propagate(me, rho0, t)
    h = me.hamiltonian
    gen = kron_superop(h, h, [(L, L, r) for L, r in me.jumps])
    assert np.max(np.abs(got - dense_expm_oracle(gen, rho0, t))) <= 1e-10
    assert np.max(np.abs(got - liouville.propagate(me.generator(), rho0, t))
                  ) <= 1e-10
    for h in bad:
        k = (h - h.conj().T) / 2j
        if np.allclose(k, k[0, 0] * np.eye(len(k))):
            continue    # a multiple of the identity drops out of [H, rho]
        bad_me = dataclasses.replace(me, hamiltonian=h)
        for model in (bad_me, bad_me.generator()):
            with pytest.raises(ValidationError, match="preserve Hermiticity"):
                liouville.propagate(model, rho0, 1.0)


@settings(max_examples=150, deadline=None)
@given(component_models())
def test_dense_block_route_matches_oracle(case):
    # the dense generator from the Kronecker oracle, not from _superop
    me, _, rho0, t = case
    h = me.hamiltonian
    gen = kron_superop(h, h, [(L, L, r) for L, r in me.jumps])
    got = liouville.propagate(gen, rho0, t)
    assert np.max(np.abs(got - dense_expm_oracle(gen, rho0, t))) <= 1e-10


def test_dense_route_checks_unoccupied_blocks():
    # two index blocks {0, 2} and {1, 3}; the state occupies only the
    # first, and the generator fails Hermiticity only inside the second
    perm = np.array([0, 2, 1, 3])
    h = np.kron(I2, SX)[np.ix_(perm, perm)]
    L = np.kron(I2, np.array([[0, 1], [0, 0]]))[np.ix_(perm, perm)]
    gen = kron_superop(h, h, [(L, L, 2.0)])
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[np.ix_([0, 2], [0, 2])] = PLUS
    want = dense_expm_oracle(gen, rho0, 1.0)
    npt.assert_allclose(liouville.propagate(gen, rho0, 1.0), want,
                        atol=1e-12)
    g4 = gen.reshape(4, 4, 4, 4).copy()
    g4[3, 1, 3, 1] += 1j      # X[3, 1] rotates, X[1, 3] does not
    with pytest.raises(ValidationError, match="preserve Hermiticity"):
        liouville.propagate(g4.reshape(16, 16), rho0, 1.0)


def _generator_models():
    for n_max in (2, 3):    # criterion 09's forward model
        params = working_point(gamma_z=50.0, n_max=n_max)
        tones = circuit.plan_dissipative_tones(
            params.Omega, params.mode.omega_z, 0.0,
            (0.0, 1.5 * np.pi, 1.5 * np.pi))
        yield f"jrm{n_max}", lambda p=params, t=tones: (
            circuit.build_jrm_effective(p, t, include_three_body=True))
    yield "system_bath", lambda: circuit.build_system_bath(
        circuit.SystemBathParams(3.0, 1.5, 100.0, n_max=4), SZ, SX, (0.1, 0.7))


@pytest.mark.parametrize("build", [pytest.param(build, id=name)
                                   for name, build in _generator_models()])
def test_model_generator_matches_kron_oracle(build):
    # the assembler writes the jump term at the operators' nonzeros only
    me = build()
    h = me.hamiltonian
    want = kron_superop(h, h, [(L, L, r) for L, r in me.jumps])
    assert np.max(np.abs(me.generator() - want)) <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("n_max", [2, 3])
def test_dense_jrm_generator_matches_master_equation(n_max):
    # criterion 09's forward model: its dense generator and the model
    params = working_point(gamma_z=50.0, n_max=n_max)
    ec = circuit.effective_coupling_constants(params)
    tones = circuit.plan_dissipative_tones(
        params.Omega, params.mode.omega_z, 0.0,
        (0.0, 1.5 * np.pi, 1.5 * np.pi))
    me = circuit.build_jrm_effective(params, tones, include_three_body=True)
    t = 1.0 / (2.0 * ec.gamma_eff * ec.eta_over_gamma)
    rho0 = opcore.tensor([P0, P0, P0, circuit.fock_vacuum(n_max + 1)])
    got = liouville.propagate(me.generator(), rho0, t)
    assert np.max(np.abs(got - liouville.propagate(me, rho0, t))) <= 1e-12


def test_checked_states_covers_every_state_of_a_stack():
    good = np.stack([P0, PLUS, np.eye(2) / 2])
    npt.assert_array_equal(liouville._checked_states(good, good), good)
    drifted = good.copy()
    drifted[1] *= 1.01
    with pytest.raises(NumericalError, match="trace drifted"):
        liouville._checked_states(good, drifted)
    skew = good.copy()
    skew[1, 0, 1] += 1e-6
    with pytest.raises(NumericalError, match="Hermiticity drift"):
        liouville._checked_states(good, skew)
    negative = good.copy()
    negative[1] = np.diag([1.5, -0.5])
    with pytest.raises(NonPhysicalResult):
        liouville._checked_states(good, negative)
    gen = kron_dissipator(SX - 1j * P0)
    liouville.propagate(gen, P0, 1.0)
    with pytest.raises(ValidationError, match="preserve Hermiticity"):
        liouville.propagate(gen + left_superop(SX), P0, 1.0)


def test_block_route_skips_unoccupied_blocks():
    # dephasing keeps |0><0|, |1><1| and the coherences apart: only the
    # occupied block moves
    gen = kron_dissipator(SZ) + hamiltonian_superop(SZ)
    npt.assert_array_equal(liouville.propagate(gen, P0, 3.0), P0)
    assert n_real_blocks(gen) == 3


def test_block_route_follows_one_way_decay():
    # |1><1| feeds |0><0| but not back: one block, not two
    sm = np.array([[0, 1], [0, 0]], dtype=complex)
    gen = kron_dissipator(sm)
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    want = np.diag([1 - np.exp(-2.0), np.exp(-2.0)])
    npt.assert_allclose(liouville.propagate(gen, rho0, 2.0), want, atol=1e-14)


@pytest.mark.parametrize("t", [0.0, 1.0])
def test_propagate_rejects_bad_initial_state(t):
    gen = kron_dissipator(SZ)
    with pytest.raises(NotHermitian):
        liouville.propagate(gen, np.array([[0, 1], [0, 0]], dtype=complex), t)
    with pytest.raises(NotDensityMatrix):
        liouville.propagate(gen, np.diag([1.5, -0.5]), t)
    with pytest.raises(NotDensityMatrix):
        liouville.propagate(make_coupling(), np.diag([1.5, -0.5, 0, 0]), t)


def test_non_hermiticity_preserving_generator_rejected(rng):
    gen = left_superop(rand_hermitian(rng, 3))
    with pytest.raises(ValidationError, match="preserve Hermiticity"):
        liouville.propagate(gen, np.eye(3) / 3, 1.0)
    # d = 16 with no exact zeros: one component, checked all the same
    gen = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
    assert np.all(gen != 0)
    with pytest.raises(ValidationError, match="preserve Hermiticity"):
        liouville.propagate(gen, np.eye(16) / 16, 1.0)


def test_closed_form_guards():
    c = make_coupling()
    with pytest.raises(DimMismatch):
        liouville.propagate(c, np.eye(2) / 2, 1.0)
    with pytest.raises(ValidationError):
        liouville.propagate(c, np.kron(PLUS, P0), -1.0)


def test_drift_coefficient_signs():
    c = make_coupling(eta=0.5, phi=0.3, g=0.2)
    assert c.drift(2.0) == 2.0 * (0.2 + 0.5 * np.sin(0.3))
    assert c.drift(2.0, on=1) == 2.0 * (0.2 - 0.5 * np.sin(0.3))
    npt.assert_array_equal(c.drift(np.array([1.0, -1.0])),
                           [c.drift(1.0), c.drift(-1.0)])
    with pytest.raises(ValidationError):
        c.drift(1.0, on=3)


def test_reduced_s2_drift_and_rate():
    # phi = +pi/2 with eta = g doubles the drift on S2 ...
    c = make_coupling(gamma=10.0, eta=0.5, phi=np.pi / 2, g=0.5)
    drift, rate = liouville.reduced_s2_generator(c, 1)  # lambda = +1 of sz
    assert drift == pytest.approx(2 * 0.5, abs=1e-15)
    assert rate == pytest.approx(0.5 ** 2 / 10.0, abs=1e-15)
    # ... and cancels it at phi = -pi/2
    c = make_coupling(gamma=10.0, eta=0.5, phi=-np.pi / 2, g=0.5)
    drift, _ = liouville.reduced_s2_generator(c, 1)
    assert abs(drift) < 1e-15


def test_reduced_s2_dissipative_only():
    c = make_coupling(gamma=7.0, eta=1.0, phi=np.pi / 2, g=0.0)
    drift, rate = liouville.reduced_s2_generator(c, 0)  # lambda = -1 of sz
    assert drift == pytest.approx(-1.0, abs=1e-15)
    assert rate == pytest.approx(1.0 / 7.0, abs=1e-15)


def test_reduced_s1_mirror():
    c = make_coupling(gamma=10.0, eta=0.5, phi=np.pi / 2, g=0.5)
    drift, rate = reduced_s1_generator(c, 1)  # lambda = +1 of sx
    assert abs(drift) < 1e-15  # g - eta sin(phi) = 0: S1 sees no back-action
    assert rate == 10.0


def test_reduced_generator_bad_index():
    # a negative index counts from the largest eigenvalue, as in Python
    c = make_coupling(gamma=10.0, eta=0.5, phi=np.pi / 2, g=0.5)
    assert liouville.reduced_s2_generator(c, -1) == \
        liouville.reduced_s2_generator(c, 1)
    for j in (5, 2, -3):
        with pytest.raises(BadEigenindex):
            liouville.reduced_s2_generator(c, j)


def test_cascaded_generator_identity_a():
    # A = identity: the cascaded form collapses to -i[2 eta B, .] on S2
    c = make_coupling(A=I2, B=SX, gamma=5.0, eta=0.8)
    got = cascaded_generator(c)
    want = hamiltonian_superop(2 * 0.8 * np.kron(I2, SX))
    npt.assert_allclose(got, want, atol=1e-13)


@pytest.mark.parametrize("dur, coeff", [
    (np.nan, 1.0), (np.inf, 1.0), (0.5, np.nan), (0.5, np.inf)])
def test_control_pulse_rejects_non_finite_segments(dur, coeff):
    with pytest.raises(ValidationError, match="finite"):
        liouville.ControlPulse(segments=((dur, (coeff,)),), hamiltonians=(SX,))


def test_control_pulse_rejects_malformed_hamiltonians():
    # caught here, not as an IndexError or a broadcast error when propagated
    with pytest.raises(ValidationError, match="needs a Hamiltonian"):
        liouville.ControlPulse(segments=((0.5, ()),), hamiltonians=())
    with pytest.raises(DimMismatch, match="differ in shape"):
        liouville.ControlPulse(segments=((0.5, (1.0, 1.0)),),
                               hamiltonians=(SX, np.eye(3)))


def test_control_pulse_validation():
    with pytest.raises(ValidationError):
        liouville.ControlPulse(segments=((0.0, (1.0,)),), hamiltonians=(SX,))
    with pytest.raises(ValidationError):
        liouville.ControlPulse(segments=((0.5, (1.0, 2.0)),),
                               hamiltonians=(SX,))
    pulse = liouville.ControlPulse(segments=((0.5, (1.0,)), (0.25, (0.0,))),
                                   hamiltonians=(SX,))
    assert pulse.total_duration == pytest.approx(0.75)
    npt.assert_allclose(pulse.segment_hamiltonian(0), SX)
    npt.assert_allclose(pulse.segment_hamiltonian(1), np.zeros((2, 2)))


def test_rabi_flip_with_channel_off():
    # gamma = eta = 0: propagation is purely the control Hamiltonian
    c = make_coupling(gamma=0.0, eta=0.0, g=0.0)
    pulse = liouville.ControlPulse(segments=((np.pi / 2, (1.0,)),),
                                   hamiltonians=(SX,))
    rho0 = np.kron(P0, P0)
    rho = liouville.propagate_controlled(c, pulse, rho0)
    r2 = opcore.partial_trace(rho, (2, 2), [1])
    npt.assert_allclose(r2, np.diag([0.0, 1.0]), atol=1e-12)


def test_segment_split_equals_merged():
    c = make_coupling(gamma=5.0, eta=0.7)
    h = rand_hermitian(np.random.default_rng(0), 2)
    one = liouville.ControlPulse(segments=((0.8, (1.0,)),), hamiltonians=(h,))
    two = liouville.ControlPulse(segments=((0.3, (1.0,)), (0.5, (1.0,))),
                                 hamiltonians=(h,))
    rho0 = np.kron(PLUS, P0)
    npt.assert_allclose(liouville.propagate_controlled(c, one, rho0),
                        liouville.propagate_controlled(c, two, rho0),
                        atol=1e-12)


@pytest.mark.parametrize("d1, d2", [(3, 2), (4, 3)])
def test_propagate_controlled_matches_oracle(rng, d1, d2):
    # A is not diagonal: propagate splits each segment in A's eigenbasis
    A = rand_hermitian(rng, d1)
    c = make_coupling(gamma=8.0, eta=0.7, phi=0.4, g=0.3, A=A,
                      B=rand_hermitian(rng, d2))
    hams = (rand_hermitian(rng, d2), rand_hermitian(rng, d2))
    pulse = liouville.ControlPulse(
        segments=((0.3, (1.0, -0.5)), (0.5, (0.2, 0.8))), hamiltonians=hams)
    rho0 = rand_density(rng, d1 * d2)
    want = rho0
    L = c.jump_operator()
    for k, (dur, _) in enumerate(pulse.segments):
        h = c.coherent_hamiltonian() + np.kron(np.eye(d1),
                                               pulse.segment_hamiltonian(k))
        me = liouville.MasterEquation(h, ((L, 1.0),), (c.d1, c.d2))
        assert liouville._leading_eigenbasis(me)[1] is not me.hamiltonian
        want = dense_expm_oracle(kron_superop(h, h, [(L, L, 1.0)]), want, dur)
    got = liouville.propagate_controlled(c, pulse, rho0)
    assert np.max(np.abs(got - want)) <= 1e-10


def test_propagate_controlled_no_pulse():
    """A pulse with no segments returns a copy of the state."""
    c = make_coupling()
    rho0 = np.kron(P0, P0)
    pulse = liouville.ControlPulse(segments=(), hamiltonians=(SX,))
    got = liouville.propagate_controlled(c, pulse, rho0)
    npt.assert_array_equal(got, rho0)
    assert got is not rho0


def test_master_equation_generator(rng):
    h = rand_hermitian(rng, 2)
    L = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    me = liouville.MasterEquation(h, ((L, 3.0),), (2,))
    want = hamiltonian_superop(h) + 3.0 * kron_dissipator(L)
    npt.assert_allclose(me.generator(), want, atol=1e-13)
