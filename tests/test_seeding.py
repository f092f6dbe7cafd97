import importlib
import pkgutil
import re

import phaseret
import phaseret.seeding


def test_stream_codes_match_the_seeding_table():
    # every _STREAM_* constant of every phaseret module, cli included
    codes = []
    for info in pkgutil.iter_modules(phaseret.__path__):
        mod = importlib.import_module(f"phaseret.{info.name}")
        codes += [v for k, v in vars(mod).items() if k.startswith("_STREAM_")]
    assert len(codes) == len(set(codes))
    table = re.findall(r"^ {4}(\d+)  ", phaseret.seeding.__doc__, flags=re.MULTILINE)
    assert sorted(codes) == sorted(int(c) for c in table)
