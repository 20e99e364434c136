import tracemalloc

from tracing import Tracer, covered, self_times


def _span(id_, parent, start, end):
    return {"id": id_, "parent": parent, "start_ns": start, "end_ns": end}


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        _span(0, None, 0, 100),
        _span(1, 0, 10, 30),
        _span(2, 0, 20, 40),  # overlaps span 1: the overlap counts once
        _span(3, 0, 90, 120),  # ends after its parent: clipped at 100
        _span(4, 1, 12, 28),  # a grandchild does not reduce span 0 again
    ]
    own = self_times(spans)
    assert own == {0: 100 - 30 - 10, 1: 20 - 16, 2: 20, 3: 30, 4: 16}


def test_covered_clips_and_merges():
    assert covered([], 0, 10) == 0
    assert covered([(5, 8), (0, 3), (2, 4)], 0, 10) == 7
    assert covered([(-5, 5), (8, 20)], 0, 10) == 7


def test_tracer_links_parents_and_records_allocations():
    tracer = Tracer("w")
    with tracer.span("command.x", "x"):
        with tracer.span("layer.call", "x", "m0", (2, 3), alloc=True) as counters:
            block = bytearray(2_000_000)
            counters["bytes_in"] = len(block)
            del block
    outer, inner = tracer.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert inner["matrix"] == "m0" and inner["shape"] == [2, 3]
    assert inner["counters"] == {"bytes_in": 2_000_000}
    assert inner["alloc_bytes"] >= 2_000_000
    assert outer["start_ns"] <= inner["start_ns"] <= inner["end_ns"] <= outer["end_ns"]
    assert not tracemalloc.is_tracing()


def test_disabled_tracer_records_nothing():
    tracer = Tracer("w", enabled=False)
    with tracer.span("layer.call", "x", alloc=True) as counters:
        counters["kept"] = 1
    assert tracer.spans == []
