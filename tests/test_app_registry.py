"""The app registry: one definition of each paper app, and the property the
reproduction never checked before it — the variants of one app compute
the same answer, on every back end."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.geo import GeoConfig
from repro.apps.graph500 import Graph500Config
from repro.apps.hpgmg import HpgmgConfig
from repro.apps.isx import IsxConfig
from repro.apps.registry import APPS, app
from repro.apps.uts import UtsConfig
from repro.exec.sim import SimExecutor
from repro.util.errors import ConfigError
from repro.verify import spmd_differential


@pytest.mark.parametrize("name", sorted(APPS))
def test_variants_agree_on_sim_and_two_shards(name):
    rep = spmd_differential(
        name, [("sim", None, None),
               ("shards=2", None, lambda: SimExecutor(shards=2))])
    assert rep.ok, rep.describe()
    assert len(rep.runs) == 2 * len(APPS[name].variants)


def test_unknown_app_lists_the_choices():
    with pytest.raises(ConfigError, match="choose from .*'hpgmg'"):
        app("nbody")


def test_the_oracles_reject_a_wrong_run():
    isx = APPS["isx"]
    _answer, res = isx.run("hiper")
    tampered = [r.copy() for r in res.results]
    tampered[0][0] += 1
    with pytest.raises(AssertionError):
        isx.answer(isx.config, tampered)
    uts = APPS["uts"]
    with pytest.raises(AssertionError, match="sequential walk"):
        uts.answer(uts.config, [1, 2, 3, 4])


def test_the_hpgmg_oracle_wants_10x_every_two_cycles():
    # Fig. 4's bar: 100x in 4 V-cycles. Measured factors are 0.07-0.35 per
    # cycle; a residual that only about halves per cycle is not converging.
    hpgmg = APPS["hpgmg"]
    cfg = hpgmg.config

    def run(factor):
        return [([factor ** k for k in range(cfg.cycles + 1)], None)]

    with pytest.raises(AssertionError, match="10x every two"):
        hpgmg.answer(cfg, run(0.45))
    assert hpgmg.answer(cfg, run(0.2))[1] == cfg.cycles


def _small_config(name, size, seed):
    if name == "isx":
        return IsxConfig(keys_per_pe=64 * size, seed=seed)
    if name == "uts":
        return UtsConfig(root_children=10 * size, mean_children=0.8,
                         seed=seed)
    if name == "graph500":
        return Graph500Config(scale=4 + size, seed=seed)
    if name == "geo":
        return GeoConfig(nx=3 + size, ny=4, nz=3 + size, timesteps=size,
                         seed=seed)
    return HpgmgConfig(box_dim=4 * size, boxes_xy=1, boxes_z_per_rank=1,
                       cycles=1 + size)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(APPS)), size=st.integers(1, 2),
       seed=st.integers(0, 2**16), ranks=st.integers(2, 4))
def test_variants_agree_on_small_configs(name, size, seed, ranks):
    entry = APPS[name]
    cfg = _small_config(name, size, seed)
    cluster = entry.cluster(ranks, 2)
    answers = {v: entry.run(v, cluster, cfg=cfg)[0] for v in entry.variants}
    assert len(set(answers.values())) == 1, answers

