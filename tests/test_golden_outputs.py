"""Golden outputs: the SHA-256 of every deterministic CLI output.

The README promises byte-identical output files for the same arguments and
seed; these hashes hold that promise across commits, not only across two
runs of one commit. The one platform-dependent field, ``verify-all``'s
float ``max_deviation``, is dropped before hashing. A change that alters an
output on purpose updates its hash here and says why in CHANGES.md.
"""

import hashlib
import json

import pytest

from buckysob.cli import main

GOLDEN = {
    ("build-graph",):
        "765ea92865751f15752a2ff523448c6408f3bfe1e6bc22731f70dd3c6f55dac6",
    ("build-graph", "--format", "dot"):
        "4a3dbda210f8af166745c1c715ea095d0dbb5caa4fda4280d79e142e744a72ff",
    ("charpoly",):
        "b771d5195d2077841b6bb95cc39d76ad399f18b5548e36927fa1b7d9d1828236",
    ("charpoly", "--format", "csv"):
        "8668cc1d318a888ecbb6781abe01b0ef4e3ba1550f4a204b9bb77757153bf71b",
    ("spectrum", "--format", "csv"):
        "f43f99f5c6a899110c867f94885a5d85f616e0d416da143326adccc8e67a45cc",
    ("green",):
        "5d1a70e23109cf8709c7dcb0bb74b4701fa9c20d5427cf4a58d9932c1febe9e8",
    ("green", "--a-values", "1/10,1,10"):
        "47bd8c86f5c5ec0bb61c7b8b26dfdd21cfb4c1960851c21985a17690e7bba991",
    ("green", "--a-values", "281474976710597/281474976710655"):
        "f439dd68851d6c37245f831cf8bd8acd442a12dc1ad0cb87b4c167398c2fcc08",
    # The CI's eight-value sweep, a = p/q with p and q of 1 to 47 bits.
    ("green", "--a-values",
     "1,216/205,50054/36903,12667956/10366955,4275361147/3268308804,"
     "355694146273/323055404041,99917665461003/139028292933446,"
     "125722343564244/125230156241369"):
        "d1b73e9f2853479f6796024bee01492d82ccd04ac7118883a8fc194e8fbcb880",
    ("constants",):
        "0c645a7f54011635dc212d7d5e038d0e1c3d14740463dc3a557fa0c8eae48f94",
    ("sample-ca",):
        "0966d845fd99591f393bd9a1f3014af00e239a962f2e6e16938ec997313af30d",
    ("verify-all", "--seed", "1"):
        "e74beea337cc40d4702ec087508ad34d0e012d41404ddcbd8a3911acd68df5be",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_output_is_golden(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*argv, "--output", str(out)]) == 0
    data = out.read_bytes()
    if argv[0] == "verify-all":
        report = json.loads(data)
        del report["checks"]["eigenvalue_table"]["max_deviation"]
        data = (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
    assert hashlib.sha256(data).hexdigest() == GOLDEN[argv]
