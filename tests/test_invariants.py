"""Cross-cutting invariants, mostly property-based.

Algebraic identities the system must satisfy regardless of data or
hyperparameters: FedAvg of identical states is the identity, weighted
averaging is affine-consistent, genotype masks survive roundtrips, the
policy distribution is shift-invariant, and compensation is exact on
quadratic objectives.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller import ArchitecturePolicy
from repro.federated import FedAvgTrainer, compensate_weight_gradients
from repro.search_space import NUM_OPERATIONS, ArchitectureMask, Genotype


class TestFedAvgAlgebra:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        copies=st.integers(1, 5),
    )
    def test_average_of_identical_states_is_identity(self, seed, copies):
        # the trainer averages flat arena snapshots (one array per model)
        flat = np.random.default_rng(seed).normal(size=8)
        averaged = FedAvgTrainer._weighted_average(
            [flat.copy() for _ in range(copies)], [1.0] * copies
        )
        np.testing.assert_allclose(averaged, flat)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_weighted_average_is_convex_combination(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        averaged = FedAvgTrainer._weighted_average([a, b], [3.0, 1.0])
        np.testing.assert_allclose(averaged, 0.75 * a + 0.25 * b)
        # Bounded by the extremes elementwise.
        assert (averaged >= np.minimum(a, b) - 1e-12).all()
        assert (averaged <= np.maximum(a, b) + 1e-12).all()

    def test_weights_scale_invariance(self):
        a = np.array([1.0])
        b = np.array([3.0])
        x = FedAvgTrainer._weighted_average([a, b], [1.0, 2.0])
        y = FedAvgTrainer._weighted_average([a, b], [10.0, 20.0])
        np.testing.assert_allclose(x, y)


class TestPolicyInvariances:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), shift=st.floats(-10, 10))
    def test_distribution_shift_invariance(self, seed, shift):
        """Adding a constant to an edge's logits leaves the sampling
        distribution unchanged (softmax shift invariance)."""
        policy = ArchitecturePolicy(3, rng=np.random.default_rng(seed), init_std=1.0)
        before = policy.probabilities()
        policy.alpha[0, 1, :] += shift
        after = policy.probabilities()
        np.testing.assert_allclose(before, after, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_log_prob_consistent_with_probabilities(self, seed):
        policy = ArchitecturePolicy(3, rng=np.random.default_rng(seed), init_std=1.0)
        mask = policy.sample_mask()
        probs = policy.probabilities()
        manual = 0.0
        for e in range(3):
            manual += np.log(probs[0, e, mask.normal[e]])
            manual += np.log(probs[1, e, mask.reduce[e]])
        assert policy.log_prob(mask) == pytest.approx(manual)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_entropy_bounds(self, seed):
        policy = ArchitecturePolicy(4, rng=np.random.default_rng(seed), init_std=2.0)
        entropy = policy.entropy()
        assert 0.0 <= entropy <= np.log(NUM_OPERATIONS) + 1e-9


class TestGenotypeRoundtrips:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), edges=st.integers(1, 14))
    def test_mask_genotype_json_roundtrip(self, seed, edges):
        rng = np.random.default_rng(seed)
        mask = ArchitectureMask.from_arrays(
            rng.integers(0, NUM_OPERATIONS, size=edges),
            rng.integers(0, NUM_OPERATIONS, size=edges),
        )
        genotype = Genotype.from_mask(mask)
        assert Genotype.from_json(genotype.to_json()).to_mask() == mask


class TestCompensationExactness:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_exact_on_separable_quadratics_with_matching_curvature(self, seed):
        """For L(w) = sum a_i w_i^2, the true gradient drift is
        2a ⊙ (w' − w).  Compensation with λ g ⊙ g approximates the
        diagonal Hessian 2a by g²; at the point where g² = 2a (i.e.
        |g| = sqrt(2a)) and λ = 1 the repair is exact."""
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.5, 2.0, size=5)
        # Choose w so that g(w) = 2 a w satisfies g² = 2a  =>  w = 1/sqrt(2a).
        w = 1.0 / np.sqrt(2 * a)
        drift = rng.normal(scale=0.1, size=5)
        w_fresh = w + drift
        g_stale = 2 * a * w
        g_fresh = 2 * a * w_fresh
        repaired = compensate_weight_gradients(
            {"w": g_stale}, {"w": w_fresh}, {"w": w}, lam=1.0
        )["w"]
        np.testing.assert_allclose(repaired, g_fresh, atol=1e-9)


@pytest.mark.parametrize(
    "module",
    [
        "federated/server.py",
        "checkpoint.py",
        "telemetry/trace.py",
        "federated/compiled.py",
        "federated/executor.py",
        "transport/backend.py",
    ],
)
def test_round_loop_and_checkpoint_functions_stay_short(module):
    """The round reads as Alg. 1, the checkpoint and the trace report as
    tables, only while no function there grows past a screen and a half."""
    import ast
    import pathlib

    import repro

    source = (pathlib.Path(repro.__file__).parent / module).read_text()
    too_long = {
        node.name: node.end_lineno - node.lineno + 1
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name != "__init__"
        and node.end_lineno - node.lineno + 1 > 80
    }
    assert not too_long, f"{module}: functions over 80 lines: {too_long}"


def test_the_step_path_keeps_no_process_global_state():
    """A local step depends only on its arguments: nothing in ``nn/``,
    ``federated/compiled.py`` or ``federated/participant.py`` rebinds a
    module global or takes a lock, apart from ``set_forward_hook``'s
    per-op profiling hook."""
    import ast
    import pathlib

    import repro

    root = pathlib.Path(repro.__file__).parent
    paths = sorted((root / "nn").glob("*.py"))
    paths += [root / "federated" / "compiled.py", root / "federated" / "participant.py"]
    allowed = {("set_forward_hook", "_FORWARD_HOOK")}
    found = []

    class Finder(ast.NodeVisitor):
        function = None

        def visit_FunctionDef(self, node):
            outer, self.function = self.function, node.name
            self.generic_visit(node)
            self.function = outer

        def visit_Global(self, node):
            for name in node.names:
                if (self.function, name) not in allowed:
                    found.append(f"{path.name}:{node.lineno}: global {name}")

        def visit_Attribute(self, node):
            if node.attr in ("Lock", "RLock"):
                found.append(f"{path.name}:{node.lineno}: {node.attr}")
            self.generic_visit(node)

        def visit_Name(self, node):
            if node.id in ("Lock", "RLock"):
                found.append(f"{path.name}:{node.lineno}: {node.id}")

    for path in paths:
        Finder().visit(ast.parse(path.read_text()))
    assert not found, found


#: The functions in ``src/repro`` over 80 lines, at their current length.
#: Each may shrink or leave this table; none may grow, and no other
#: function may join it (ROADMAP item 16).
LONG_FUNCTIONS = {
    "federated/server.py:FederatedSearchServer.__init__": 108,
    "nn/modules.py:_batch_norm_train": 96,
}


def test_no_function_in_src_grows_past_80_lines():
    """Every function in every module, constructors included, fits a
    screen and a half, apart from the ratchet in ``LONG_FUNCTIONS``."""
    import ast
    import pathlib

    import repro

    root = pathlib.Path(repro.__file__).parent
    lengths = {}

    class Lengths(ast.NodeVisitor):
        scope = ()

        def visit_ClassDef(self, node):
            outer, self.scope = self.scope, self.scope + (node.name,)
            self.generic_visit(node)
            self.scope = outer

        def visit_FunctionDef(self, node):
            name = ".".join(self.scope + (node.name,))
            lengths[f"{path.relative_to(root).as_posix()}:{name}"] = (
                node.end_lineno - node.lineno + 1
            )
            self.visit_ClassDef(node)

        visit_AsyncFunctionDef = visit_FunctionDef

    for path in sorted(root.rglob("*.py")):
        Lengths().visit(ast.parse(path.read_text()))
    assert "federated/server.py:FederatedSearchServer.run_round" in lengths
    too_long = {
        name: length
        for name, length in lengths.items()
        if length > max(80, LONG_FUNCTIONS.get(name, 0))
    }
    assert not too_long, f"functions over 80 lines: {too_long}"
