"""The output gate rejects a single changed byte."""

import hashlib

import gate


def write(directory, name, data):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / name).write_bytes(data)


def test_identical_outputs_pass_and_one_byte_fails(tmp_path):
    results, out = tmp_path / "results", tmp_path / "out"
    for directory in (results, out):
        write(directory, "figure9.json", b'{"rows": [1, 2, 3]}\n')
        write(directory, "figure9.txt", b"Figure 9\n")
    assert gate.check_experiments(out, ["figure9"], results, {}) == {}
    write(out, "figure9.txt", b"Figure 8\n")
    failures = gate.check_experiments(out, ["figure9"], results, {})
    assert list(failures) == ["figure9"]
    assert "figure9.txt" in failures["figure9"][0]


def test_pinned_digest_is_checked_when_results_has_no_file(tmp_path):
    out = tmp_path / "out"
    body = b"prefetch study\n"
    write(out, "prefetch-study.json", body)
    write(out, "prefetch-study.txt", body)
    digests = {name: hashlib.sha256(body).hexdigest() for name in ("prefetch-study.json", "prefetch-study.txt")}
    assert gate.check_experiments(out, ["prefetch-study"], tmp_path / "results", digests) == {}
    write(out, "prefetch-study.json", b"prefetch study!\n")
    assert list(gate.check_experiments(out, ["prefetch-study"], tmp_path / "results", digests)) == ["prefetch-study"]


def test_missing_output_or_reference_fails(tmp_path):
    out = tmp_path / "out"
    write(out, "orphan.json", b"{}")
    failures = gate.check_experiments(out, ["orphan"], tmp_path / "results", {})
    assert any("not written" in problem for problem in failures["orphan"])
    assert any("no reference" in problem for problem in failures["orphan"])


def test_cold_and_warm_must_match(tmp_path):
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    for directory in (cold, warm):
        write(directory, "tables1-8.json", b"[1]")
        write(directory, "tables1-8.txt", b"t")
    assert gate.check_same(cold, warm, ["tables1-8"]) == {}
    write(warm, "tables1-8.json", b"[2]")
    assert list(gate.check_same(cold, warm, ["tables1-8"])) == ["tables1-8"]


def test_service_responses_compare_on_result_and_payload():
    reply = gate.canonical_response({"b": 1, "a": [1, 2]}, b"\x00\x01")
    assert reply == gate.canonical_response({"a": [1, 2], "b": 1}, b"\x00\x01")
    assert reply != gate.canonical_response({"a": [1, 2], "b": 1}, b"\x00\x02")
    assert reply != gate.canonical_response({"a": [1, 2], "b": 2}, b"\x00\x01")


def test_pinned_digests_cover_every_experiment_without_a_results_file():
    import paper
    from common import RESULTS

    digests = gate.load_digests()
    for name in paper.ALL:
        for suffix in gate.SUFFIXES:
            assert (RESULTS / f"{name}{suffix}").is_file() or f"{name}{suffix}" in digests
