"""Golden digests for loaded multi-job streams.

The differential tests pin bit-identity only for a lone job, and the
stream corpus pins a horizon within a tolerance.  This file pins the
*whole* realization of loaded streams -- every dispatch record, every
job's finish and lost flag, and the dead CPUs -- as a sha256 digest of
an exact (``float.hex``) serialization.  Any change to the arena's
dispatch decisions or float arithmetic, however small, changes a
digest.  The matrix crosses two job families (random DAGs, whose
normalized entry is a zero-cost pseudo task, and FFT graphs, whose
real entry task Static/HDLTS duplicates), the arrival rate (from
near-idle to every job queued at once), the CCR, exact vs noisy
durations and the online policy vs static replays, plus the online
policy under two fail-stops.

To regenerate after an *intended* change in arena behaviour, run this
file as a script and paste its output over ``GOLDEN``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, Optional, Tuple

import numpy as np
import pytest

from repro.dynamic.failures import FailStop
from repro.experiments.graphspec import GraphSpec
from repro.stream import ArrivalSpec, StreamInstance, StreamSpec, run_stream

RATES = (0.005, 0.05, 0.2, 1.0)
CCRS = (0.5, 5.0)
SIGMAS = (0.0, 0.3)
POLICIES = ("OnlineHDLTS", "Static/HDLTS", "Static/HEFT", "Static/CPOP")
FAILURES = (FailStop(0, 40.0), FailStop(2, 90.0))

#: job family -> (factory, x value); 8 jobs of ~15 tasks on 3 CPUs
#: queue deeply at the high rates
FAMILIES = {"random": ("random", 14), "fft": ("fft", 4)}
N_JOBS = 8
N_PROCS = 3
SEED = 1

Case = Tuple[str, str, float, float, float, bool]


def _cases() -> Iterator[Case]:
    for family in FAMILIES:
        for rate in RATES:
            for ccr in CCRS:
                for sigma in SIGMAS:
                    for policy in POLICIES:
                        yield family, policy, rate, ccr, sigma, False
                    yield family, "OnlineHDLTS", rate, ccr, sigma, True


def _case_id(family: str, policy: str, rate: float, ccr: float,
             sigma: float, failures: bool) -> str:
    tail = "-failstop" if failures else ""
    return f"{family}-{policy}-r{rate:g}-ccr{ccr:g}-s{sigma:g}{tail}"


def _workload(family: str, rate: float, ccr: float,
              sigma: float) -> StreamInstance:
    factory, job_x = FAMILIES[family]
    axis = "v" if factory == "random" else "m"
    spec = StreamSpec(
        job=GraphSpec(
            factory, {"axis": axis, "n_procs": N_PROCS, "ccr": ccr}
        ),
        arrival=ArrivalSpec("poisson", rate=rate),
        n_jobs=N_JOBS,
        axis="rate",
        job_x=job_x,
        noise={"kind": "gaussian", "sigma": sigma} if sigma else None,
    )
    return spec.build(rate, np.random.default_rng([SEED, 0, 0]))


def _hex(x: float) -> str:
    return float(x).hex()


def realization_digest(result) -> str:
    """sha256 of the records, per-job finish/lost and the dead CPUs."""
    h = hashlib.sha256()
    for r in result.records:
        h.update(
            f"r {r.job} {r.task} {r.proc} {_hex(r.start)} {_hex(r.finish)} "
            f"{int(r.duplicate)} {int(r.lost)}\n".encode()
        )
    for j in result.jobs:
        h.update(
            f"j {j.job} {_hex(j.finish)} {int(j.finished)} "
            f"{int(j.lost)}\n".encode()
        )
    h.update(f"d {list(result.dead_procs)}\n".encode())
    return h.hexdigest()


def _run(family: str, policy: str, rate: float, ccr: float, sigma: float,
         failures: bool) -> str:
    instance = _workload(family, rate, ccr, sigma)
    fails: Optional[Tuple[FailStop, ...]] = FAILURES if failures else None
    return realization_digest(run_stream(instance, policy, failures=fails))


GOLDEN: Dict[str, str] = {
    "random-OnlineHDLTS-r0.005-ccr0.5-s0":
        "1288d7b5fce9c5d4e096044947d6af47701cba9c934f703cfe1dfde107553945",
    "random-Static/HDLTS-r0.005-ccr0.5-s0":
        "6826d70b875f565bc0d75e69941b9b26920f20cf331eb25f4a623aabc8da9ae5",
    "random-Static/HEFT-r0.005-ccr0.5-s0":
        "1dc717ed991cd38d7fa7524ab501a3530ee0b80d11dc0ef55124873b89994d85",
    "random-Static/CPOP-r0.005-ccr0.5-s0":
        "66c120ca7286c64565b6ab00ffc42a9bd5fe565a581d39dc96f1f04c64638137",
    "random-OnlineHDLTS-r0.005-ccr0.5-s0-failstop":
        "13d46d7c13401f754d7d1ea1ba05fc6867135027a584302e5d3bb1ffdcf804c9",
    "random-OnlineHDLTS-r0.005-ccr0.5-s0.3":
        "a0b2d810b8b965da773be1ff6cf2c1856419b97004630d1532ce431778ebaac5",
    "random-Static/HDLTS-r0.005-ccr0.5-s0.3":
        "0d8c257705c80a7679cd3fad8bf9c58539b11406db1e1ae2e4335884c77e97ff",
    "random-Static/HEFT-r0.005-ccr0.5-s0.3":
        "22a527eb37d6ac9642f629bc6c323eaeabce561e9bb112e864876a844e14ca93",
    "random-Static/CPOP-r0.005-ccr0.5-s0.3":
        "4dfecfc679dfa0f60ccba7d6a3732192b61e55bb071dec0983a902a2e2395865",
    "random-OnlineHDLTS-r0.005-ccr0.5-s0.3-failstop":
        "f45fe3914f0b0fefd1039977fbdc7d9c62222fd7704e78d6d30fda0cb386e765",
    "random-OnlineHDLTS-r0.005-ccr5-s0":
        "6bd147ed748bb5c1732fb7ca79c88605139d2a5e8f8a053a0191e3f0b728b581",
    "random-Static/HDLTS-r0.005-ccr5-s0":
        "9f075ab069f2956ed8f53282afb1c21e61d88230a0f2150caea0d3fc42f867cb",
    "random-Static/HEFT-r0.005-ccr5-s0":
        "3443b388589d2a4aed685a6b2a92c04dfbc95d1901f33da1f00e434d8ac37311",
    "random-Static/CPOP-r0.005-ccr5-s0":
        "1ccfe02bad77adb3d88525b10754de6931394c01a8fd2167bbf3dff6abdb6068",
    "random-OnlineHDLTS-r0.005-ccr5-s0-failstop":
        "13d46d7c13401f754d7d1ea1ba05fc6867135027a584302e5d3bb1ffdcf804c9",
    "random-OnlineHDLTS-r0.005-ccr5-s0.3":
        "fdc390b710a9d135a8967a7eee93d32614e22fb0d9ef789eab321076aa1a1992",
    "random-Static/HDLTS-r0.005-ccr5-s0.3":
        "1d92e60ca8ec95042315f5c7627041e03c6b63e97d2f2d34e352ca60dba72432",
    "random-Static/HEFT-r0.005-ccr5-s0.3":
        "6a6343afa4e125446b1f5f5f24c897199314aca197a5c01eb35e9057109ecbf8",
    "random-Static/CPOP-r0.005-ccr5-s0.3":
        "319aaf1376403e3d0ff6f11e3bcdfaa7d23dc91df9b49be502f51b2971c85851",
    "random-OnlineHDLTS-r0.005-ccr5-s0.3-failstop":
        "f45fe3914f0b0fefd1039977fbdc7d9c62222fd7704e78d6d30fda0cb386e765",
    "random-OnlineHDLTS-r0.05-ccr0.5-s0":
        "f9a294c1cc966208b505175c8138db9eab903252d47e3bbadaaa7aed2cf89211",
    "random-Static/HDLTS-r0.05-ccr0.5-s0":
        "ec259bc609b1bc7d004464bb1f3815f8dd3d1d7b817cb0a36421b2c10ca21b5c",
    "random-Static/HEFT-r0.05-ccr0.5-s0":
        "4c8cc46faca387e237d1cd8dd5ad3b2b4b89bfe0f23ca65b0c482f8d42356a8e",
    "random-Static/CPOP-r0.05-ccr0.5-s0":
        "c1978bd7d98c18e2917589362abb268f2ec19b3818959a5f48be5c110f14e968",
    "random-OnlineHDLTS-r0.05-ccr0.5-s0-failstop":
        "d280d69aef75366352e88a58e11959799a8660723ceb8a89c11e620e747cddb8",
    "random-OnlineHDLTS-r0.05-ccr0.5-s0.3":
        "aa21d8ff900894bfbeba3735609306d1d33f4eda5e42c44e4e7aff73cca36790",
    "random-Static/HDLTS-r0.05-ccr0.5-s0.3":
        "4f5e5e4cb8d43ba063d2f394701f066f68e83ac895ff632705e92c6da55a07df",
    "random-Static/HEFT-r0.05-ccr0.5-s0.3":
        "d7db9c702d3d9d004b5808617d9fb59f942552d346e850bb5c468820408883ca",
    "random-Static/CPOP-r0.05-ccr0.5-s0.3":
        "22029fcd5b08ccfea9fce34d32a01cc4034a3c614173a69d509529c48760233b",
    "random-OnlineHDLTS-r0.05-ccr0.5-s0.3-failstop":
        "b3d8b42128ce5968f91da982623341fc0e4f28a636b991ee0389e34495fb0e02",
    "random-OnlineHDLTS-r0.05-ccr5-s0":
        "8dca1f02a2c8bd31390d87479853214887f0c6c39e6a423db85df4512e88d713",
    "random-Static/HDLTS-r0.05-ccr5-s0":
        "47b2924d0d80e219d368ac4eec1f63bd5d0c439af2a53f8b6af1506813a5de5c",
    "random-Static/HEFT-r0.05-ccr5-s0":
        "e1158cd07c490a4204af13e277e3d80fbfed7d25a9ddb33d5045b17c6f17a6a9",
    "random-Static/CPOP-r0.05-ccr5-s0":
        "0b27dffbef52c1a4e7cedd3fb7a98a337b488b9bf8a39166f63c6656d541fd2c",
    "random-OnlineHDLTS-r0.05-ccr5-s0-failstop":
        "b72a132c5972298a9a99bcae77a44f15cfb613dd5b27f110fa40dee6a1bec6a9",
    "random-OnlineHDLTS-r0.05-ccr5-s0.3":
        "ad262cfcdee6c85b0d4ed25fd7bb58fed44d724f685c64e1d707a65216c2bd46",
    "random-Static/HDLTS-r0.05-ccr5-s0.3":
        "33ad27f569450b8ab6921eaeabeaf4f06543e76d0cb3cfcf89a7b4672c3cd4be",
    "random-Static/HEFT-r0.05-ccr5-s0.3":
        "a450e7546a3453412df2c6e66a225106af514c82b245dbb56ba0a7efc8d57056",
    "random-Static/CPOP-r0.05-ccr5-s0.3":
        "6c1da5a48aa5c89a8e6f01c429921a271da73190da518d07247e8a168fc6670e",
    "random-OnlineHDLTS-r0.05-ccr5-s0.3-failstop":
        "f95b5f9f4a5a376b8104a4f6adbdc0228b7e6d03c08496f53a4edc946d4b92de",
    "random-OnlineHDLTS-r0.2-ccr0.5-s0":
        "045c8e4eb0251ef54ef2d77408a50dabce78c9abb3bddf5c020757d271b8a95f",
    "random-Static/HDLTS-r0.2-ccr0.5-s0":
        "02af4634e3db8a384d027c06efafdc31f8c221e98d491363e0e33dddf6625a48",
    "random-Static/HEFT-r0.2-ccr0.5-s0":
        "d84e860229795d98f584393226c9e73fba4a6ac459ff4875897af0eb7e6e8a31",
    "random-Static/CPOP-r0.2-ccr0.5-s0":
        "2a41dd6111fc93c90bc1e0e26306e281201a914b05f2c3d512245a19548c891a",
    "random-OnlineHDLTS-r0.2-ccr0.5-s0-failstop":
        "e688159d0d3347926803d1e3d9890232532104e3bc680e19681e23b9e506d087",
    "random-OnlineHDLTS-r0.2-ccr0.5-s0.3":
        "d8de8544c6548f034be480845ed4dbe676171a5f005f6a59bc975a2baba29512",
    "random-Static/HDLTS-r0.2-ccr0.5-s0.3":
        "4803aa2d0ad025aeed0dd8d799a485bdd72b4af67de72e6dbb8e599fa29dad3a",
    "random-Static/HEFT-r0.2-ccr0.5-s0.3":
        "2f2c2ea32af44dab54275c36bcd3a6460cb34ba1a4b4b2f8c80d441a33fa80fc",
    "random-Static/CPOP-r0.2-ccr0.5-s0.3":
        "ab751208dc6de241a1d8c2af888e6f9d5633f52d4aba5cf30773f7c2a763ff27",
    "random-OnlineHDLTS-r0.2-ccr0.5-s0.3-failstop":
        "8e0ccd464c6b53744ef66fdf66bd73461e78324c9fc29d905ecb731b671244ad",
    "random-OnlineHDLTS-r0.2-ccr5-s0":
        "a0ea1f155347846da0b0c1c822ac889a2ad2eb45aae1d765c92970658c70545d",
    "random-Static/HDLTS-r0.2-ccr5-s0":
        "80f97d22a3a8b3ffdb0d2a211bf6d53fba7fb3584a05dd9ee102306640615755",
    "random-Static/HEFT-r0.2-ccr5-s0":
        "a9c2190d1aa333857470eb43755588455171efb584d6d7f00fcbee1fb3e736d0",
    "random-Static/CPOP-r0.2-ccr5-s0":
        "727f818315ec7e9d17d093f2c9e9a4ab31cd4591a8ab5cca0e68ef1bf315b984",
    "random-OnlineHDLTS-r0.2-ccr5-s0-failstop":
        "70cefbe3b4e46d9baaf81987064be77e1f7360fb57e31399877405f33d8973d8",
    "random-OnlineHDLTS-r0.2-ccr5-s0.3":
        "45b30a086d6b30ef7680e8d2b6af2f7ef65232dcc0427d609d111188153dec03",
    "random-Static/HDLTS-r0.2-ccr5-s0.3":
        "12c4075b9c75b0669b0e6691456573308b53b30b512a344438fe1e70abfb90ea",
    "random-Static/HEFT-r0.2-ccr5-s0.3":
        "884af584a754102d977101ad043ec65531613b02abd84d64159a8932b99c5e47",
    "random-Static/CPOP-r0.2-ccr5-s0.3":
        "8218d2512149aee9a47e37e13de99f69a42b8df4d3a87d3a5cfcbe8e9d678d96",
    "random-OnlineHDLTS-r0.2-ccr5-s0.3-failstop":
        "910da235364f6a2b1ece9c93adf293bf835ff52d349e6dc4a245e08836bc87fa",
    "random-OnlineHDLTS-r1-ccr0.5-s0":
        "36f33b81a3b8bb5d518eef57628ac6b6414af2429e2ef6e609e0a2f0a01e6caf",
    "random-Static/HDLTS-r1-ccr0.5-s0":
        "9413f18c963bc4a652e72f2afa5321e7882e6e0fbd3df86a4713b62a29d201bf",
    "random-Static/HEFT-r1-ccr0.5-s0":
        "c83851574c471c49d51189fb05081088ef488f40d2f9ac4de76a18c38a6b8511",
    "random-Static/CPOP-r1-ccr0.5-s0":
        "153b1f6b8505c35c858b692a4b81cb6861a3536303acd3afb2bdbbfda3ab7193",
    "random-OnlineHDLTS-r1-ccr0.5-s0-failstop":
        "5646b75929e85325871317a4cc4659c15e90695336e4b098de802f9b364e3d02",
    "random-OnlineHDLTS-r1-ccr0.5-s0.3":
        "47173fe5732631d0baa209fbcdbf6bcbf493b2719126b20032b3877c83643d4c",
    "random-Static/HDLTS-r1-ccr0.5-s0.3":
        "64e2c24c461c57c5877976311f6566906a53d1d2eed3c9ca75d29a0597b55be4",
    "random-Static/HEFT-r1-ccr0.5-s0.3":
        "d917c4d85a8fbbdd20ba4f0acec11bf3435504c3959a36e6ae904388913762bb",
    "random-Static/CPOP-r1-ccr0.5-s0.3":
        "644d2513712191adf5c00beb4480a426d5d5a5720c242e569bc7a864d23446df",
    "random-OnlineHDLTS-r1-ccr0.5-s0.3-failstop":
        "3fe8175fc15db00c5cb55c50230402265383b13d862040ac337c43937f6cde71",
    "random-OnlineHDLTS-r1-ccr5-s0":
        "d8fce5ec673955ede8417c912de22003c5b398a5c1bf3fc3bfb8c51c10fd0cc1",
    "random-Static/HDLTS-r1-ccr5-s0":
        "882d66d6d3accc23f808000ff838a26d2b5c37db81d23b2c2d5388ba631de179",
    "random-Static/HEFT-r1-ccr5-s0":
        "a3e6f9543fd98ff6efc62df92a0a627d49d44defd575a88fb2bb1f2fb627e66d",
    "random-Static/CPOP-r1-ccr5-s0":
        "e1dce381bd00acf7b0b9d2f37e198fc49936a2e28e53c343bfb17ff7d99cfccc",
    "random-OnlineHDLTS-r1-ccr5-s0-failstop":
        "39e5174b515176ac25c35e80f20b6be8de6fbaf27cc4147be7cd5e994a55cae8",
    "random-OnlineHDLTS-r1-ccr5-s0.3":
        "66b10986c9d353da5217de12a5282ccc1a2a48e38f78eef3722b98b29946f7f5",
    "random-Static/HDLTS-r1-ccr5-s0.3":
        "cb3110f6fae73238ea7e16f819d1be308feb9ca17d80bd5e6163f936f7ccc9b5",
    "random-Static/HEFT-r1-ccr5-s0.3":
        "5893fe109c24bc60844fc857d1d9206c2176f60a87c560719704cac3cfff79bb",
    "random-Static/CPOP-r1-ccr5-s0.3":
        "ea4a9e47164e4d2bafcd67cc557f1e84ec9debb0e0f367f9bd079db57d33c316",
    "random-OnlineHDLTS-r1-ccr5-s0.3-failstop":
        "5a30c01f1bebd1ee9fe5d10e92fb110fe5c51e176f8e9bdfd9b07b39a49f577c",
    "fft-OnlineHDLTS-r0.005-ccr0.5-s0":
        "51b6bde1e57a132438f1fc17e290eb90fd9842409bd20afbaa0fc12c58601be7",
    "fft-Static/HDLTS-r0.005-ccr0.5-s0":
        "e40c274a4cd3bc9ae661c854900b96b0f11ca061a02b07b66a03f354fa0cb07a",
    "fft-Static/HEFT-r0.005-ccr0.5-s0":
        "dd82a04b67b920eb1234207496c3b5e719a6231c88f6f92c3f14c9aaa106a760",
    "fft-Static/CPOP-r0.005-ccr0.5-s0":
        "6cd47c3fb9d6f95471dd871a47b9d530dc7fc96880a43f75a03a4910d51e8d67",
    "fft-OnlineHDLTS-r0.005-ccr0.5-s0-failstop":
        "7e86368087dab9b9e8039c7109722b71a28d8bf24cf4e2bacb9448d509ab18d8",
    "fft-OnlineHDLTS-r0.005-ccr0.5-s0.3":
        "11205c977151b6a094a87d08b6eb28dff5cc26383c1690d0967e4c6bf27c9266",
    "fft-Static/HDLTS-r0.005-ccr0.5-s0.3":
        "6dd2ea431cb10ffb24b6223129b1248589225ef786c56eeb0cf2ac8be5f3a00a",
    "fft-Static/HEFT-r0.005-ccr0.5-s0.3":
        "da9b55ec1323f2ba6e93c3a9b28b3c82e645a770bd5277f8b54fb8e58a5fa682",
    "fft-Static/CPOP-r0.005-ccr0.5-s0.3":
        "8892185cd6a54998ed5db2721397a55ccbf5e909cc03393a8614224258e431b9",
    "fft-OnlineHDLTS-r0.005-ccr0.5-s0.3-failstop":
        "d7771664b9c1c05eac889fc36344ada05cc2e713ed5027137cbb189ea90ed1e3",
    "fft-OnlineHDLTS-r0.005-ccr5-s0":
        "229e1b9133907ce0a07c8f792a111adaec913ce10f953451c2cba95ce76218e4",
    "fft-Static/HDLTS-r0.005-ccr5-s0":
        "95b7d630eceb70fda40efc97cdc774fe52a86971721a198f479db01be33c2245",
    "fft-Static/HEFT-r0.005-ccr5-s0":
        "9801463291a6b41c5600507bf0db05efd1d60cb00569752080c7e38f34267aee",
    "fft-Static/CPOP-r0.005-ccr5-s0":
        "cd4ec2683422c290998ad3b7e8ae335751aee80b6e7db45cdf3f162e9ab1f376",
    "fft-OnlineHDLTS-r0.005-ccr5-s0-failstop":
        "1701f2810e5bdf165adf0eb0cb6255d3e43287ca39ce4cf68c3db3656f0e6ea2",
    "fft-OnlineHDLTS-r0.005-ccr5-s0.3":
        "d4ca38592e1779e351338dabb40495c60a9179e8cd5eb4c37b39280b51ca0494",
    "fft-Static/HDLTS-r0.005-ccr5-s0.3":
        "83486d399dbdd30b61ad80cb635e2e00b68bf9be5f31c729b96f4ac50a1bc98f",
    "fft-Static/HEFT-r0.005-ccr5-s0.3":
        "1e4f1af966395be0e03e2521f799396b3f29741bf2760c74f1a3c8c3874d92ab",
    "fft-Static/CPOP-r0.005-ccr5-s0.3":
        "33808636f5acd899750d1dd5d198f2c9b6c053b3c239b9f3e6babb7e5217db04",
    "fft-OnlineHDLTS-r0.005-ccr5-s0.3-failstop":
        "a2d49134c9beb95c33bdbd6c637813fb1f4c5d3675d75bce6ec5fd12ce9f89fa",
    "fft-OnlineHDLTS-r0.05-ccr0.5-s0":
        "01f20b4bfad8dd35a524f442acff5d5f45ca697b01a4614f0236eaf94bc6010d",
    "fft-Static/HDLTS-r0.05-ccr0.5-s0":
        "e44ef0309e204a5847981ed7da038bdbfe1461fe60d4d0a2f07c949a4a083fd8",
    "fft-Static/HEFT-r0.05-ccr0.5-s0":
        "d94ec51f516f8df7d287b115c002219b3d1387245cae1750964b2cf3c7226d08",
    "fft-Static/CPOP-r0.05-ccr0.5-s0":
        "c345c2d9966a8bf6ced0250e88af35d33a453ace95093f5599b45f59922494c9",
    "fft-OnlineHDLTS-r0.05-ccr0.5-s0-failstop":
        "f3e60e7aa7530259b649bd163a70974b6fcdf1079a174b12569bbc9d6c60273b",
    "fft-OnlineHDLTS-r0.05-ccr0.5-s0.3":
        "77513a861840af8d179b2f8e69cfe4c9a6d7f16f72b5300313ec16e17187326d",
    "fft-Static/HDLTS-r0.05-ccr0.5-s0.3":
        "39c504958d4e5e80420a6fb887ca9c1088738f34f9e1cff8edff8858484f99d2",
    "fft-Static/HEFT-r0.05-ccr0.5-s0.3":
        "d101bafb87cf3302a7492cc3222ea8a1f2cf4563240f1a68f1b156487d66d0cf",
    "fft-Static/CPOP-r0.05-ccr0.5-s0.3":
        "833ea19dcf60c141d952654b3119af936fc5679a5448764cdb94d15dc56b85c8",
    "fft-OnlineHDLTS-r0.05-ccr0.5-s0.3-failstop":
        "d76781f99f4348ef42351f082e9b7cf6ac4637256b93211f6ccd89e3f2539e5b",
    "fft-OnlineHDLTS-r0.05-ccr5-s0":
        "e24a08a266b9c16eb8a987f4afc49c885bb04fc1808d7301d27a2104458d0a3c",
    "fft-Static/HDLTS-r0.05-ccr5-s0":
        "dd425d9da8b16d52e62fefe46dc933591cff3ffc31b6823ec221d4e5e84a13fd",
    "fft-Static/HEFT-r0.05-ccr5-s0":
        "a8bc3c7fd02c63202164ef1eaf710b345ec7f9daf7a6a7bafd5e0abc92307b14",
    "fft-Static/CPOP-r0.05-ccr5-s0":
        "04594d419b2eabc2364e76b4460cfa4fe54c0ee3bdacac77a872794e8fab895b",
    "fft-OnlineHDLTS-r0.05-ccr5-s0-failstop":
        "5ea3b74025ddfbb9d7bfbbf3539808f871d1347b96793e12f515e287e1554df3",
    "fft-OnlineHDLTS-r0.05-ccr5-s0.3":
        "b3801fc4f3686903eead4ed09e9ab8ee0fbea0f346c3ac37066385c9a2455cf5",
    "fft-Static/HDLTS-r0.05-ccr5-s0.3":
        "57928447085d06bd3b8e1efef6fb9835f12379cb1c0de43039961c56c750135f",
    "fft-Static/HEFT-r0.05-ccr5-s0.3":
        "6104ca95a349be79f74c5989f31f5250e12e331c472dea1b20d6f4281912aac2",
    "fft-Static/CPOP-r0.05-ccr5-s0.3":
        "cff60d1bdd68a061a99699f10873dd15cd123531ed18624d416ccd7d42883d51",
    "fft-OnlineHDLTS-r0.05-ccr5-s0.3-failstop":
        "4a59c527195338e5655baea2f23cd084b74fa8350e2a35d00774028346d804d1",
    "fft-OnlineHDLTS-r0.2-ccr0.5-s0":
        "ce5ca41587c56cc7ae5ffb0ccf88c8573ce27391c1d6944b276fd8f0382a6851",
    "fft-Static/HDLTS-r0.2-ccr0.5-s0":
        "d6a1bd49f176cf865af60b0a218ee1dd77c193a246c5d7c8259fed6abaa8f2ea",
    "fft-Static/HEFT-r0.2-ccr0.5-s0":
        "b6b093ccb0e0a5e33d1dcf4c388562c348eb39e6cacd442bdea863fd093b5b57",
    "fft-Static/CPOP-r0.2-ccr0.5-s0":
        "b52e0de1cd262b6bae635406be4dd7d4382dff159a96eb18c6020f8f26367c8d",
    "fft-OnlineHDLTS-r0.2-ccr0.5-s0-failstop":
        "c1fe9b93b73d349b1f96d5a1380f6a845aac50daab0075550527c733f7ae0172",
    "fft-OnlineHDLTS-r0.2-ccr0.5-s0.3":
        "49928e60cdf6326f809c198cbb61f48a06339fd7adfb85b9ee61dbe5cbf95ff6",
    "fft-Static/HDLTS-r0.2-ccr0.5-s0.3":
        "d441825feca335c2afa7033623557c4306cb0ac07ea6dee82b643a99bb74cc7f",
    "fft-Static/HEFT-r0.2-ccr0.5-s0.3":
        "a8e8217fa0448a5d76cd4a6662279f986c20b66b4501182afa998d846069641e",
    "fft-Static/CPOP-r0.2-ccr0.5-s0.3":
        "1395e46a2d38e21d78baa8cbab177072f9412e1e6b415eb9c3bbb01565262af0",
    "fft-OnlineHDLTS-r0.2-ccr0.5-s0.3-failstop":
        "82a78c43cac7d29c6f2d95a59a425d3124f8fb3087d5221d9077095e01b7b0cd",
    "fft-OnlineHDLTS-r0.2-ccr5-s0":
        "6a2f646c0163bc140151df226ebf182e49334c92882d0b922f71efdf9e330c62",
    "fft-Static/HDLTS-r0.2-ccr5-s0":
        "367de20141506ec845e784194a401f7493fa679bc51f6a9702c56b8c1821c6d8",
    "fft-Static/HEFT-r0.2-ccr5-s0":
        "35cd130dbf21a4c5f56ec138e20b39912d37159e18c0c5b44a4e7f3996bef521",
    "fft-Static/CPOP-r0.2-ccr5-s0":
        "8136ac785f5e1bf81578169e4a9d1be194d973e5fcb964e0aaf677c1bab1973a",
    "fft-OnlineHDLTS-r0.2-ccr5-s0-failstop":
        "b2de6070c9980c3e4b2c64932294d7c6cb4574d16bf43d26c53e750103b61987",
    "fft-OnlineHDLTS-r0.2-ccr5-s0.3":
        "7fa2320cb69a3cb3928dde8c6f7a414fd50df1ecdbc89da97a30e3369adac1e0",
    "fft-Static/HDLTS-r0.2-ccr5-s0.3":
        "4c1cc3f7c319617c8dfb235b132f83b8564cdd2f14895395f33856622aca6036",
    "fft-Static/HEFT-r0.2-ccr5-s0.3":
        "8cb534a6ec565bead256d24b8814c0520e8658599b1c082f7ae93a669203e230",
    "fft-Static/CPOP-r0.2-ccr5-s0.3":
        "91ebedb6fd7246e9af320c36081faec0457ec5187eca53292f8b451b3c093990",
    "fft-OnlineHDLTS-r0.2-ccr5-s0.3-failstop":
        "7595e5a9f172664e0f66ef0601a669f775ecf76d89943e3c9cb37b1149f6595e",
    "fft-OnlineHDLTS-r1-ccr0.5-s0":
        "1e5ca265ca8dbf84a4751834e887d33cc7243542b64af9d557099349d98630a8",
    "fft-Static/HDLTS-r1-ccr0.5-s0":
        "f005cc18fa2db675afe435e634666963b74762361c90e14a7ee83aee813b80dd",
    "fft-Static/HEFT-r1-ccr0.5-s0":
        "734357cedea91a56710f81b1c9a68e6fcc82259eeb871b877606eb89d670350c",
    "fft-Static/CPOP-r1-ccr0.5-s0":
        "9006311b2b60e6756a738f0cc38ced5e8da2bbded4a0939ed27088432f8218a1",
    "fft-OnlineHDLTS-r1-ccr0.5-s0-failstop":
        "bf50b7791bc7c16bc459c2a97ec47661239a830bb58d99413cd922bde09f6b4b",
    "fft-OnlineHDLTS-r1-ccr0.5-s0.3":
        "74f92642078e72aef3798f2206696f491f60704afa57feb065cc8a10685b9a6c",
    "fft-Static/HDLTS-r1-ccr0.5-s0.3":
        "39882b64623b5ab81299e53872c2ba5c1249c796fd085aed8ec12612ce1985c2",
    "fft-Static/HEFT-r1-ccr0.5-s0.3":
        "83f676ffaf3f4cd8f53079eb72d79320c3cd1479e29c8cf9b691af81e0910db6",
    "fft-Static/CPOP-r1-ccr0.5-s0.3":
        "820320f40b790866653be3273611d39cda68f344bd0a478bc4432656dee15175",
    "fft-OnlineHDLTS-r1-ccr0.5-s0.3-failstop":
        "1f32deb6cf356344c3ee0266a3049c7ef920544e46768b7c3e6f8509dcc7ac14",
    "fft-OnlineHDLTS-r1-ccr5-s0":
        "7f82cf54ef12c73da1e8decaaf6ba17ffe5dd24186cf207588c9a5d666c2a598",
    "fft-Static/HDLTS-r1-ccr5-s0":
        "4c5bab28fbdd186f4a8b2b07a2a1d17897886087b3af4d04af1d68508b755f3b",
    "fft-Static/HEFT-r1-ccr5-s0":
        "b8e2272792f5bba920ea6a3ca529eb37d917c8de6f793a20fdd76c401bbe8e2e",
    "fft-Static/CPOP-r1-ccr5-s0":
        "620b8d1e98b42cb1ddac6c9ad4b2162fe38cfc77979d8f338ccabe01f3ad523d",
    "fft-OnlineHDLTS-r1-ccr5-s0-failstop":
        "cfc6d873fea6bbcdc2729bca780a8aab607c608736960063dad3ca51e3fbab10",
    "fft-OnlineHDLTS-r1-ccr5-s0.3":
        "a39df72d660269a7cbad7e94d8ff53e93923867a206462a7ebe96a084d0fb8a0",
    "fft-Static/HDLTS-r1-ccr5-s0.3":
        "e6ea4eb6530d1ca13d69f5dbe3b67c54894ff25857d839965928fc344b977399",
    "fft-Static/HEFT-r1-ccr5-s0.3":
        "87dade759f4dd90f880ff5ce144f558a9103f781532d5fc8f93a1d672f8b0ee4",
    "fft-Static/CPOP-r1-ccr5-s0.3":
        "ca373179202eb92e1e967b74d85638b53bead9d38406314179e2b4b2d16ba707",
    "fft-OnlineHDLTS-r1-ccr5-s0.3-failstop":
        "a81b14f1770ac133fd2a9b2782e951d45fb5dd22cb4fbdac30e1f3eb94a45961",
}


@pytest.mark.parametrize(
    "case", list(_cases()), ids=[_case_id(*c) for c in _cases()]
)
def test_realization_matches_golden_digest(case):
    assert _run(*case) == GOLDEN[_case_id(*case)]


def test_matrix_reaches_the_interesting_regimes():
    """The pinned matrix must actually exercise queueing, duplicates
    and lost dispatches, or the digests pin nothing of interest."""
    loaded = _workload("fft", 1.0, 5.0, 0.3)
    dup = run_stream(loaded, "Static/HDLTS")
    assert any(r.duplicate for r in dup.records)
    online = run_stream(loaded, "OnlineHDLTS")
    assert any(r.duplicate for r in online.records)
    # jobs overlap: some job starts before an earlier one has finished
    finishes = [j.finish for j in online.jobs]
    starts = [j.first_start for j in online.jobs]
    assert any(s < max(finishes[:i]) for i, s in enumerate(starts) if i)
    failed = run_stream(loaded, "OnlineHDLTS", failures=FAILURES)
    assert failed.n_lost_dispatches > 0
    assert failed.dead_procs == (0, 2)


if __name__ == "__main__":  # regenerate GOLDEN
    for case in _cases():
        print(f'    "{_case_id(*case)}":\n        "{_run(*case)}",')
