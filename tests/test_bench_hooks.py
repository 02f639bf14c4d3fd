"""The benchmark's tracer (perfbench/tracer.py) wraps library functions
under the names their callers look up.  A refactor that unbinds one of
those names must fail here, not only inside a traced benchmark run."""

import types
from pathlib import Path

from dinoclip import evaluation

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    """Execute the tracer source without writing bytecode next to it."""
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER_PATH.read_text(encoding="utf-8"), str(TRACER_PATH), "exec"),
         module.__dict__)
    return module


def test_every_traced_name_is_bound():
    tracer = _load_tracer()
    found = tracer.target_functions()
    assert set(found) == {(mod, attr) for mod, attr, _ in tracer.TARGETS}
    assert all(callable(fn) for fn in found.values())


def test_retrieval_report_builds_one_similarity_matrix(rng, monkeypatch):
    """retrieval_report reaches cosine_matrix and recall_at_k through module
    globals, builds one matrix for both directions, ranks each direction
    once and counts R@1/5/10 from those ranks."""
    rank, ranked = evaluation._best_correct_rank, []

    def counted_rank(values, correct):
        ranked.append(values.shape)
        return rank(values, correct)

    monkeypatch.setattr(evaluation, "_best_correct_rank", counted_rank)
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        evaluation.retrieval_report(rng.normal(size=(4, 3)), rng.normal(size=(8, 3)),
                                    [0, 1, 2, 3] * 2)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("evaluation.cosine_matrix") == 1
    assert names.count("evaluation.recall_at_k") == 6
    assert ranked == [(4, 8), (8, 4)]
