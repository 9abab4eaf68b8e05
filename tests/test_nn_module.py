"""Unit tests for the module system."""

import numpy as np
import pytest

from repro.nn import Linear, Module, Parameter


class _Block(Module):
    def __init__(self, rng):
        super().__init__()
        self.inner = Linear(3, 2, rng)
        self.scale = Parameter(np.array(2.0))

    def forward(self, x):
        return self.inner(x) * self.scale


class TestRegistration:
    def test_parameters_discovered_recursively(self, rng):
        block = _Block(rng)
        names = [n for n, _ in block.named_parameters()]
        assert "scale" in names
        assert "inner.weight" in names
        assert "inner.bias" in names

    def test_parameters_list(self, rng):
        block = _Block(rng)
        assert len(block.parameters()) == 3

    def test_non_parameter_attrs_not_registered(self, rng):
        layer = Linear(2, 2, rng)
        layer.note = "hello"
        assert "note" not in dict(layer.named_parameters())


class TestTrainEval:
    def test_zero_grad(self, rng):
        block = _Block(rng)
        out = block(np.ones((1, 3)))
        out.sum().backward()
        assert block.scale.grad is not None
        block.zero_grad()
        assert all(p.grad is None for p in block.parameters())


class TestStateDict:
    def test_roundtrip(self, rng):
        a = _Block(rng)
        b = _Block(np.random.default_rng(999))
        b.load_state_dict(a.state_dict())
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_allclose(pa.data, pb.data)

    def test_state_dict_is_a_copy(self, rng):
        block = _Block(rng)
        state = block.state_dict()
        state["scale"][()] = 99.0
        assert block.scale.data != 99.0

    def test_missing_key_raises(self, rng):
        block = _Block(rng)
        state = block.state_dict()
        del state["scale"]
        with pytest.raises(KeyError):
            block.load_state_dict(state)

    def test_unexpected_key_raises(self, rng):
        block = _Block(rng)
        state = block.state_dict()
        state["ghost"] = np.zeros(1)
        with pytest.raises(KeyError):
            block.load_state_dict(state)

    def test_shape_mismatch_raises(self, rng):
        block = _Block(rng)
        state = block.state_dict()
        state["inner.weight"] = np.zeros((5, 5))
        with pytest.raises(ValueError):
            block.load_state_dict(state)


class TestForwardProtocol:
    def test_base_forward_raises(self):
        with pytest.raises(NotImplementedError):
            Module()(1)
