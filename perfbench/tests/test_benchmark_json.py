import json

import run
from workloads import WORKLOADS


def test_benchmark_json_lists_what_the_benchmark_reports():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        run.PER_LAYER
    )
