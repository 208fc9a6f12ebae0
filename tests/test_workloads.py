"""Tests for the workload suite and the synthetic code generator."""

from __future__ import annotations

import hashlib

import pytest

from repro.errors import ConfigurationError
from repro.isa import Assembler
from repro.isa.decoding import decode_program
from repro.machine import Machine
from repro.workloads import (
    FIGURE5_PROGRAMS,
    SIMULATION_PROGRAMS,
    load,
    load_figure5_corpus,
)
from repro.workloads.codegen import (
    CodeGenerator,
    FP_PERSONALITY,
    FPPPP_PERSONALITY,
    INTEGER_PERSONALITY,
)
from repro.workloads.kernels.livermore import expected_exit
from repro.workloads.kernels.matrix import expected_checksum
from repro.workloads.rng import rng_for, seed_for, weighted_choice
from repro.workloads.suite import available_workloads


class TestRng:
    def test_seed_is_stable(self):
        assert seed_for("espresso") == seed_for("espresso")

    def test_seed_differs_across_names(self):
        assert seed_for("espresso") != seed_for("spim")

    def test_rng_reproducible(self):
        assert rng_for("x").random() == rng_for("x").random()

    def test_weighted_choice_respects_zero_weight(self):
        rng = rng_for("w")
        weights = {"a": 0.0, "b": 1.0}
        assert all(weighted_choice(rng, weights) == "b" for _ in range(50))


class TestCodeGenerator:
    def test_static_program_exact_size(self):
        source = CodeGenerator("gen-test").static_program(8192)
        program = Assembler().assemble(source)
        assert program.size == 8192

    def test_static_program_decodes_entirely(self):
        source = CodeGenerator("gen-test2").static_program(4096)
        program = Assembler().assemble(source)
        decode_program(program.text)  # every word must be a valid instruction

    def test_deterministic_output(self):
        first = CodeGenerator("same-seed").static_program(2048)
        second = CodeGenerator("same-seed").static_program(2048)
        assert first == second

    def test_different_names_differ(self):
        a = CodeGenerator("name-a").static_program(2048)
        b = CodeGenerator("name-b").static_program(2048)
        assert a != b

    def test_personalities_change_instruction_mix(self):
        integer = Assembler().assemble(CodeGenerator("mix", INTEGER_PERSONALITY).static_program(16384))
        fp = Assembler().assemble(CodeGenerator("mix", FP_PERSONALITY).static_program(16384))
        fp_count = lambda prog: sum(  # noqa: E731
            1 for i in prog.instructions if i.spec.is_fp
        )
        assert fp_count(fp) > 2 * fp_count(integer)

    def test_fpppp_personality_floods_constants(self):
        normal = Assembler().assemble(CodeGenerator("c", INTEGER_PERSONALITY).static_program(16384))
        wild = Assembler().assemble(CodeGenerator("c", FPPPP_PERSONALITY).static_program(16384))
        lui_count = lambda prog: sum(  # noqa: E731
            1 for i in prog.instructions if i.mnemonic == "lui"
        )
        assert lui_count(wild) > 2 * lui_count(normal)

    def test_pool_program_requires_power_of_two(self):
        with pytest.raises(ValueError):
            CodeGenerator("p").pool_program(functions=48)

    def test_pool_program_executes_to_completion(self):
        source = CodeGenerator("pool-test").pool_program(functions=8, iterations=50)
        result = Machine(Assembler().assemble(source)).run(max_instructions=1_000_000)
        assert result.exit_code == 0
        assert result.instructions_executed > 50

    def test_straightline_program_executes(self):
        source = CodeGenerator("fp-test", FPPPP_PERSONALITY).straightline_fp_program(
            block_words=100, iterations=5
        )
        result = Machine(Assembler().assemble(source)).run(max_instructions=500_000)
        assert result.exit_code == 0

    def test_padding_reaches_target(self):
        source = CodeGenerator("pad-test").pool_program(
            functions=8, iterations=10, static_pad_bytes=65536
        )
        assert Assembler().assemble(source).size == 65536


#: SHA-256 of every suite workload's assembled (text, data) segments.
ASSEMBLED_SHA256 = {
    "crc32": (
        "c2c22b9ac4c05268dfb02d3b555963f5fa90edacf7f03605e00bdffc8e399bb8",
        "5341e6b2646979a70e57653007a1f310169421ec9bdd9f1a5648f75ade005af1",
    ),
    "eightq": (
        "35c89d9649c893d7c2064718ad045d52196e49b624222899e78a8d770480c669",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "espresso": (
        "91879f389882f946b45113ceb7f973e062cc02db9ee5308f78add33ddceb3ab7",
        "64f0423e6b5f0eb5bf3f440ae43fe0f947efec02e3c792d6e1252c7430d0f98b",
    ),
    "fib": (
        "572394fd769511c4a679f24a6c12a181f0e0fe916c64696a5ec33e8fcfbc54ed",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "fpppp": (
        "86358444d293eb12ca0b6e91e03267108055ede8d0d453d8b4b587dd6d23de87",
        "ad7facb2586fc6e966c004d7d1d16b024f5805ff7cb47c7a85dabd8b48892ca7",
    ),
    "lloop01": (
        "63f9fba0e1d60ba07663f1c8e410f9c63698ad0d5750e18ea2177abbcd943b2f",
        "1a05ba08516b4cfc9b36beb94687e233946fb6c147550cb848aef37fbb520a2b",
    ),
    "matrix25a": (
        "d1504bdef89ffa8ee57263dd5219b007fd8690e557a155d12775f516f379bc14",
        "ca621dc5d65aa2f4f43a97eb03c35dda8b399c8e48077e6c8ea185960ba0f20e",
    ),
    "nasa1": (
        "fe48480e5d180eeed1423aef18b9e89fbe83b4b4130c8a819dbc048496f13214",
        "278066d9760248c101e4b201907e4dcb3c2b06fa0da04457651d3edf57716bbe",
    ),
    "nasa7": (
        "d5ced45031e0f770ce405a40cd1ce2d39f25a434b9f10b94318c337f319cdcc0",
        "278066d9760248c101e4b201907e4dcb3c2b06fa0da04457651d3edf57716bbe",
    ),
    "pswarp": (
        "6bb9352efda3c88d9d180d3a96c7eabb933615b1fa0b6fb800cbb105d5aae75e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "qsort": (
        "26e5fdc84a98a927094f7b7c5c603adb3d214d80d00a0d1ddca6d119633d9611",
        "5f70bf18a086007016e948b04aed3b82103a36bea41755b6cddfaf10ace3c6ef",
    ),
    "spim": (
        "295bc2e9a2b27cc229fcf284a406c1312cfe623e291f5d169f4fb18bc2086365",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "tex": (
        "cecc3f41ae758cb402c8e55de110218414dc581b3d963d2311f53e96a96c9947",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "tomcatv": (
        "64dafb68d329fb9c38379cd28d805831a85beecb03eeb08752f61b1c2ef1cb40",
        "267d7a71b148c71a7ad59ddf1be179336999440176d9916e44e1050ac2ff4ccc",
    ),
    "who": (
        "b054a2414a51fc307bb45ccc9ad133dff15f75bc9e4b8ed40c85ef2187be3111",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "xlisp": (
        "5de972c0e8a9ce9558f781b7841d0488c77d4b32ed9962a05804879f3cebebca",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "yacc": (
        "7ca0b0398d877ff39196bff0f1db6091dc3932afbe235de8c084bbd27a2c187d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}


class TestSuite:
    def test_figure5_corpus_sizes_match_paper(self):
        corpus = load_figure5_corpus()
        expected = {
            "tex": 53172,
            "pswarp": 61364,
            "yacc": 49076,
            "who": 65940,
            "eightq": 4020,
            "matrix25a": 36768,  # paper says 36766; word aligned here
            "lloop01": 4020,
            "xlisp": 65940,
            "espresso": 176052,
            "spim": 147360,
        }
        assert {name: len(text) for name, text in corpus.items()} == expected

    def test_corpus_order_matches_figure(self):
        assert list(load_figure5_corpus()) == list(FIGURE5_PROGRAMS)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigurationError):
            load("doom")

    def test_static_workload_refuses_to_run(self):
        with pytest.raises(ConfigurationError):
            load("tex").run()

    def test_load_is_cached(self):
        assert load("eightq") is load("eightq")

    def test_available_workloads_superset(self):
        names = available_workloads()
        assert set(FIGURE5_PROGRAMS) <= set(names)
        assert set(SIMULATION_PROGRAMS) <= set(names)

    @pytest.mark.parametrize("name", available_workloads())
    def test_assembled_bytes_are_pinned(self, name):
        # Generation and assembly are deterministic: any drift in the
        # generator's RNG draws or in the assembler's encodings (a wrong
        # memoised expansion, say) changes these digests.
        program = load(name).program
        assert (
            hashlib.sha256(program.text).hexdigest(),
            hashlib.sha256(program.data).hexdigest(),
        ) == ASSEMBLED_SHA256[name]

    def test_every_workload_has_a_pin(self):
        assert set(available_workloads()) == set(ASSEMBLED_SHA256)

    @pytest.mark.parametrize("name", SIMULATION_PROGRAMS)
    def test_simulation_programs_execute(self, name):
        result = load(name).run()
        assert result.instructions_executed > 10_000
        assert len(result.trace) == result.instructions_executed

    def test_eightq_finds_92_solutions(self):
        assert load("eightq").run().exit_code == 92

    def test_matrix25a_checksum(self):
        assert load("matrix25a").run().exit_code == expected_checksum() & 0xFFFFFFFF

    def test_lloop01_result(self):
        assert load("lloop01").run().exit_code == expected_exit() & 0xFFFFFFFF

    def test_fpppp_thrashes_small_caches_and_fits_2k(self):
        from repro.cache import simulate_trace

        trace = load("fpppp").run().trace.addresses
        small = simulate_trace(trace, 1024).miss_rate
        large = simulate_trace(trace, 2048).miss_rate
        assert small > 0.05
        assert large < 0.01  # the paper's cliff between 1 KB and 2 KB

    def test_espresso_miss_rate_declines_slowly(self):
        from repro.cache import simulate_trace

        trace = load("espresso").run().trace.addresses
        rates = [simulate_trace(trace, size).miss_rate for size in (256, 1024, 4096)]
        assert rates[0] > rates[1] > rates[2] > 0.01

    def test_traces_stay_inside_text_segment(self):
        result = load("eightq").run()
        assert int(result.trace.addresses.max()) < load("eightq").size


class TestExtraValidationWorkloads:
    """Real algorithms with independently computed expected results."""

    def test_qsort_fully_sorts(self):
        result = load("qsort").run()
        assert result.exit_code == 255  # all 255 adjacent pairs ordered

    def test_crc32_matches_zlib(self):
        from repro.workloads.kernels.extra import crc32_expected

        result = load("crc32").run()
        assert result.exit_code == crc32_expected()

    def test_fib_20(self):
        result = load("fib").run()
        assert result.exit_code == 6765

    def test_extras_compress_and_round_trip(self):
        from repro.ccrp import ProgramCompressor
        from repro.core.standard import standard_code

        compressor = ProgramCompressor(standard_code())
        for name in ("qsort", "crc32", "fib"):
            text = load(name).text
            image = compressor.compress(text)
            restored = compressor.block_compressor.decompress_program(list(image.blocks))
            assert restored[: len(text)] == text
            assert image.compression_ratio < 0.9


@pytest.fixture
def private_assembly_cache(tmp_path, monkeypatch):
    """An empty artifact cache and an empty ``load`` memo, restored afterwards."""
    monkeypatch.setenv("CCRP_CACHE_DIR", str(tmp_path))
    load.cache_clear()
    yield tmp_path
    load.cache_clear()


class TestAssemblyArtifact:
    """The assembled image is keyed on the workload name and the source digest."""

    SMALL = ("eightq", "lloop01", "fib", "crc32")

    def test_cold_load_builds_each_source_once(self, private_assembly_cache, monkeypatch):
        from collections import Counter

        from repro.workloads import suite

        builds: Counter = Counter()
        build = suite._build_source

        def counting(spec):
            builds[spec.name] += 1
            return build(spec)

        monkeypatch.setattr(suite, "_build_source", counting)
        for name in self.SMALL + self.SMALL:
            load(name)
        assert builds == Counter(self.SMALL)

        load.cache_clear()  # a new process on the now warm disk cache
        for name in self.SMALL:
            load(name)
        assert builds == Counter(self.SMALL)

    def test_warm_load_never_generates_source(self, private_assembly_cache, monkeypatch):
        from repro.workloads import suite

        cold = load("eightq")
        load.cache_clear()

        def refuse(spec):
            raise AssertionError(f"regenerated {spec.name} on a warm load")

        monkeypatch.setattr(suite, "_build_source", refuse)
        warm = load("eightq")
        assert warm is not cold
        assert warm.program == cold.program

    def test_key_is_the_source_digest_of_workloads_and_isa(
        self, private_assembly_cache, edit_source
    ):
        from repro.core.artifacts import get_cache

        load("eightq")
        # The name is the only key part; the store adds the digest of the
        # code that generates and assembles it.
        stored = get_cache().path_for("assembly", "eightq")
        assert stored.is_file()
        edit_source("isa/assembler.py")
        assert not get_cache().path_for("assembly", "eightq").is_file()
        edit_source("workloads/codegen.py")
        assert get_cache().path_for("assembly", "eightq") != stored


class TestInternedInstructions:
    """Equal instructions of one program are one object, and decode to the text."""

    @pytest.mark.parametrize("name", available_workloads())
    def test_instructions_decode_from_text(self, name):
        program = load(name).program
        assert decode_program(program.text) == list(program.instructions)

    def test_equal_instructions_are_one_object(self):
        program = load("espresso").program
        distinct = set(program.instructions)
        assert len({id(instruction) for instruction in program.instructions}) == len(distinct)
        assert len(distinct) < len(program.instructions) // 4

    def test_pickle_round_trip_keeps_program_and_sharing(self):
        import pickle

        program = load("nasa7").program
        restored = pickle.loads(pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL))
        assert restored == program
        assert len({id(i) for i in restored.instructions}) == len(set(program.instructions))
