"""Golden outputs of the gateway's jobs and of Fig. 4's Graph500 points.

``tests/data/service_jobs_golden.json`` was captured on the commit named in
its ``captured_on`` field, before the Graph500 BFS and validator were
vectorised: the JSON-normalised result of every benchmark job kind
(ISx at three sizes, UTS, Graph500) at three seeds on a warm sim runtime,
and the exact makespan ``repr`` and parent-array digest of both Graph500
variants at scale 9 on 4 ranks. A cached gateway result and a Fig. 4 point
are only as good as these numbers, so any drift fails here first.
"""

import hashlib
import json
import os

import pytest

from repro.apps.graph500 import Graph500Config
from repro.service.jobs import JobSpec, normalize_result
from repro.service.pool import WarmRuntime, run_job_on
from tests.test_app_graph500 import assemble_parent, run_g500

with open(os.path.join(os.path.dirname(__file__), "data",
                       "service_jobs_golden.json")) as fh:
    GOLDEN = json.load(fh)


@pytest.fixture(scope="module")
def warm_sim():
    entry = WarmRuntime("sim")
    yield entry
    entry.close()


@pytest.mark.parametrize(
    "job", GOLDEN["jobs"],
    ids=lambda j: "-".join([j["app"], *map(str, j["params"].values()),
                            f"seed{j['seed']}"]))
def test_job_result_is_golden(warm_sim, job):
    spec = JobSpec.create(job["app"], job["params"], seed=job["seed"])
    result, warm = run_job_on(warm_sim, spec)
    assert warm
    assert normalize_result(result) == job["result"]


@pytest.mark.parametrize("variant", ["mpi", "hiper"])
def test_graph500_fig4_point_is_golden(variant):
    g = GOLDEN["graph500_main"]
    cfg = Graph500Config(scale=g["scale"])
    res = run_g500(variant, cfg, nranks=g["ranks"])
    parent = assemble_parent(cfg, res)
    assert repr(res.makespan) == g[variant]["makespan"]
    assert hashlib.sha256(parent.tobytes()).hexdigest() == \
        g[variant]["parent_sha256"]
