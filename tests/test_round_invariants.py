"""Every round keeps ``verify.round_invariants``, over random federations.

A hypothesis state machine draws a small federation (method, rank mix,
participation, hidden layer, local epochs, scalings, seeds) and runs it
round by round; after each round the checker must report nothing.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule, run_state_machine_as_test

from fedqr import verify
from fedqr.config import experiment_seeds
from fedqr.data import generate_blobs
from fedqr.federation import METHOD_TRAITS, METHODS, FederationConfig, init_federation, run_round


@st.composite
def federations(draw):
    """A config over 6 classes and 8 inputs, its training set and an optional held-out split."""
    method = draw(st.sampled_from(METHODS))
    n_clients = draw(st.integers(4, 8))
    server_rank = draw(st.integers(1, 4))
    if METHOD_TRAITS[method].mixed_ranks and draw(st.booleans()):
        ranks = draw(st.lists(st.integers(1, server_rank), min_size=n_clients, max_size=n_clients))
    else:
        ranks = [draw(st.integers(1, server_rank))] * n_clients
    config = FederationConfig(
        n_clients=n_clients,
        client_ranks=tuple(ranks),
        server_rank=server_rank,
        method=method,
        participation=draw(st.sampled_from([1.0, 0.5, 0.25])),
        local_epochs=draw(st.sampled_from([1, 2])),
        batch_size=16,
        lr=0.02,
        lora_scaling=draw(st.sampled_from([1.0, None])),
        global_scale=draw(st.sampled_from([1.0, 0.5])),
        dirichlet_alpha=0.5,
        hidden_dim=draw(st.sampled_from([None, 10])),
        **experiment_seeds(draw(st.integers(0, 2**16))),
    )
    train = generate_blobs(6, 12, 8, 0.3, config.data_seed)
    heldout = generate_blobs(6, 5, 8, 0.3, config.data_seed + 1) if draw(st.booleans()) else None
    return config, train, heldout


@settings(max_examples=100, stateful_step_count=6, deadline=None, derandomize=True)
class FederationRounds(RuleBasedStateMachine):
    """One federation per example, one round per step."""

    # (config, round, rank of the pair broadcast before it, sampled rank sum)
    # of every round that passed, for the coverage test
    checked = []

    @initialize(case=federations())
    def start(self, case):
        self.config, train, heldout = case
        self.server, self.clients = init_federation(self.config, train, eval_dataset=heldout)

    @rule()
    def run_one_round(self):
        before = verify.round_snapshot(self.server, self.clients)
        self.server, metrics = run_round(self.server, self.clients, self.config)
        after = (self.server, self.clients)
        assert verify.round_invariants(before, after, self.config, metrics) == []
        old_server, old_clients = before
        shipped = old_server.broadcast_factors
        stepped = [c.rank for c, old in zip(self.clients, old_clients)
                   if c.opt_state.step != old.opt_state.step]
        FederationRounds.checked.append(
            (self.config, metrics.round, shipped and shipped[0].shape[1], sum(stepped))
        )


def test_every_round_keeps_the_round_invariants():
    FederationRounds.checked.clear()
    run_state_machine_as_test(FederationRounds)
    configs = [c for c, *_ in FederationRounds.checked]
    # the draws are derandomized, so this pins what the budget covers
    assert {c.method for c in configs} == set(METHODS)
    assert {c.participation for c in configs} == {1.0, 0.5, 0.25}
    assert {c.hidden_dim for c in configs} == {None, 10}
    assert {c.local_epochs for c in configs} == {1, 2}
    assert {c.global_scale for c in configs} == {1.0, 0.5}
    assert {len(set(c.client_ranks)) > 1 for c in configs} == {False, True}
    # equal ranks at full participation stack collinear factors from round 2 on
    assert any(
        len(set(c.client_ranks)) == 1 and c.participation == 1.0 and t >= 2
        for c, t, *_ in FederationRounds.checked
    )
    # a stack method ships last round's stack, of another rank than this sample's
    assert any(
        METHOD_TRAITS[c.method].fusion == "stack" and t >= 2 and shipped != now
        for c, t, shipped, now in FederationRounds.checked
    )


@pytest.mark.parametrize(
    "check, rounds",
    [(verify.check_communication_accounting, 5 * len(METHODS) * 4),
     (verify.check_subspace_preservation, 10)],
)
def test_round_checks_route_through_the_checker(monkeypatch, check, rounds):
    # each round of the check is followed by one call of round_invariants
    calls = []

    def recording(name, function):
        def record(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return record

    for name in ("run_round", "round_invariants"):
        monkeypatch.setattr(verify, name, recording(name, getattr(verify, name)))
    assert check().passed
    assert calls == ["run_round", "round_invariants"] * rounds
