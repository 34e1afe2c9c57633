"""Golden bits: a committed SHA-256 of the stripped trace CSV of each of 32
fixed runs, so that "no bit moved" is a test and not only a claim.

The runs are plip at 100 x 10 and 2000 x 200 and qip at 200 x 10 and
2000 x 200 (an M of one row block and of 7), instance seeds 0 and 1, both
exit modes, BPGe and BPG, each from the problem's `default_x0` at
lam = 1/L, k_max 300 and tol 1e-3. At that tol the iterate exit stops
every run at the tolerance (qip at 2000 x 200 after one step) and the
stationarity exit none, so half the hashes pin where an exit test fires
and half pin 300 full steps. A hash covers
`strip_timing_columns(format_trace_csv(result))`. A change that moves
bits on purpose replaces the moved hashes here and says in CHANGES.md
which runs moved and why.
"""

import hashlib
import itertools

import numpy as np

from bregopt import SolverConfig, bpg_solve, bpge_solve, harness

# The numpy and BLAS that GOLDEN was computed with.
PINNED_ON = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0"}

GOLDEN = dict(line.split() for line in """
plip-100x10-s0-iterate-bpge 19f7dd3ac65ce46c6ff523f55299507ea6d712cbe6fe6760cd7336a01b73fdd3
plip-100x10-s0-iterate-bpg 3426fbe4b7979fded4944b3cd08e1ac1628feb38a3377320c79970c412da8316
plip-100x10-s0-stationarity-bpge c57da0f3f960525f1476099d1704d2ba6cdad3ee42ac8a1351d20c8eabe8a7d5
plip-100x10-s0-stationarity-bpg 7f51ee2a01520f1485df0a96d6ee6f95ae5fc68fde563ec0fa07390b7f207b9e
plip-100x10-s1-iterate-bpge 2fef4c7b19dc3c7b944c7f575817b29c47741733ce6f50da9274d02bcf7c83c7
plip-100x10-s1-iterate-bpg d706771276371a4dc30710e9e43c06d50f88f13a9d20222b94aeda59dd9605f7
plip-100x10-s1-stationarity-bpge c879d6c4ac05cb23ae86eec577c1dde61138222f05cf2350545957e8d9871cda
plip-100x10-s1-stationarity-bpg ad33bd592cc2655ee55f3fc341dd99a844cc4cbec6f53051d88ae422578bee5e
plip-2000x200-s0-iterate-bpge 2a9216931f38da0bef269039f8c0125ad499248afea251a94bdbfd884fcea483
plip-2000x200-s0-iterate-bpg 5ec717985cffcec1bda7b5e00372b0f92e0a4bab8b5f37aacec6c0184f81ea36
plip-2000x200-s0-stationarity-bpge 99962beb45143eebe33acaa9b9de6396c67cc8af22f31685198d9f5c9744e634
plip-2000x200-s0-stationarity-bpg d7a2924f72220154693e074d02f4b4fb75d56f0138e7c74ea6efd8c548f78046
plip-2000x200-s1-iterate-bpge f7b9d40df25f02332af5867b5b4485633693bba384de429bf19fc6d06bd185f9
plip-2000x200-s1-iterate-bpg c7d2869c7731bd094efda47e5e3cb21864e7c6bfedc1d069dafb91f7c3850e10
plip-2000x200-s1-stationarity-bpge a7af9ee8645f970c15e8e8ba96e1943fd2e531523474f68e45f63f82e3911c05
plip-2000x200-s1-stationarity-bpg 749e5e4a515199e3ca85bd286b41b202b8e73b0d74b588b9ad7f8ba7b4953b01
qip-200x10-s0-iterate-bpge d26827fd4747ec836cf1fc3d8a974957cc03277cc53a232b2871353f74e76028
qip-200x10-s0-iterate-bpg ecb5b42b379687177f479ec84b1b6f08a16cdd8a201b2e470ef6a6b6744afa0c
qip-200x10-s0-stationarity-bpge 718612c7cd3cb479170ea5cb2bdaba9a2481f0ebf61a8d0ff764ed1a774e443d
qip-200x10-s0-stationarity-bpg 1514aab3120fd313ed233fea461df898431ab91ce41f6111db1981a5480d237d
qip-200x10-s1-iterate-bpge 86d4fde6d7d8bb9cfed440b42d33208e548ce851306353cec292f8306d3c1d0c
qip-200x10-s1-iterate-bpg 92a67a1d9009b9edb126acdf66f2d81ed780db37681b4b06aa58fadaad9c753c
qip-200x10-s1-stationarity-bpge 92bf141d02d41a7f3ee77c2c287895828b9fbd310a321dfc649d07e076bc1d7e
qip-200x10-s1-stationarity-bpg b174591054e97ced0183a68c75531734a3831567b851e0c9730232ec56c104fd
qip-2000x200-s0-iterate-bpge a29397649033ad5a0cf2e247d6d366fc42aea64ba6c8525275c8a0c57adba7bb
qip-2000x200-s0-iterate-bpg ea57c9d82d4a5499b1aa0a5a512b1a9b596c4a6827772bbef3939c6c30a65559
qip-2000x200-s0-stationarity-bpge 60de833dcdcbc19c7dfe5fecae5caeea4f336ed3f545df14a1ee384324976cab
qip-2000x200-s0-stationarity-bpg fb914a74b8ba7c025142a0d3d34163be7dc21abbd286d8a0f9d487e45c4a6165
qip-2000x200-s1-iterate-bpge e25c769257d72cc0808e89f9d21c74d7cc503c7ec79e749374eecdb8c4b69ed6
qip-2000x200-s1-iterate-bpg 815be152430dcf95faac24fa10cb0f67e5f479a8ab789b1432b0409b9cce095f
qip-2000x200-s1-stationarity-bpge 00b8847ab36ad2f72d173accba7e3d2ad275934334dff3fa55de58db516ef370
qip-2000x200-s1-stationarity-bpg aa9384a41d3938e49d31d1065ed5426068bad4c76b1a337b99753273d5223f57
""".strip().splitlines())

SIZES = (("plip", 100, 10), ("plip", 2000, 200), ("qip", 200, 10),
         ("qip", 2000, 200))
EXIT_MODES = {"iterate": "iterate_relative", "stationarity": "stationarity"}
SOLVERS = {"bpge": bpge_solve, "bpg": bpg_solve}


def _blas() -> str:
    """The BLAS numpy was built with, as its name and version."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        return "unknown"
    return "%s %s" % (blas.get("name"), blas.get("version"))


def run_hashes() -> dict:
    """{run: SHA-256 of its stripped trace CSV} for the 32 runs, named as
    in GOLDEN."""
    hashes = {}
    for (problem, m, d), seed in itertools.product(SIZES, (0, 1)):
        inst = harness.generate_instance(problem, m, d, seed)
        obj, x0 = harness.problem_bundle(problem, inst)
        for (mode, exit_mode), (name, solve) in itertools.product(
                EXIT_MODES.items(), SOLVERS.items()):
            cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant(),
                               k_max=300, tol=1e-3, exit_mode=exit_mode)
            text = harness.strip_timing_columns(
                harness.format_trace_csv(solve(obj, x0, cfg)))
            run = "%s-%dx%d-s%d-%s-%s" % (problem, m, d, seed, mode, name)
            hashes[run] = hashlib.sha256(text.encode()).hexdigest()
    return hashes


def test_stripped_traces_match_the_golden_hashes():
    got = run_hashes()
    assert list(got) == list(GOLDEN)
    moved = [run for run in GOLDEN if got[run] != GOLDEN[run]]
    here = {"numpy": np.__version__, "blas": _blas()}
    note = ("" if here == PINNED_ON else
            "; pinned on %s, running on %s" % (PINNED_ON, here))
    assert not moved, "%d of %d runs moved: %s%s" % (
        len(moved), len(GOLDEN), ", ".join(moved), note)
