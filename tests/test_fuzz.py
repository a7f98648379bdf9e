"""Seeded fuzz tests of the two inputs that come from outside the program:
expression text and JSON configs.

Only ``random`` drives them, so a failure replays from its seed.  Inputs
must either answer or fail with the error the CLI turns into exit 2:
``ParseError``/``ValueError`` for expressions, ``ConfigError`` for configs.
"""

import copy
import json
import os
import random
import subprocess
import sys
import time

import pytest

from qheis.algebra import check_printable
from qheis.catalog import CATALOG_KINDS
from qheis.cli import ConfigError, load_config, triple_from_config
from qheis.parsing import parse_to_element

SYMBOLS = ("p", "x", "u", "u^-1", "i", "s", "q", "(", ")", "(", ")",
           "+", "-", "*", "*", "/", "^", "^")
NUMBERS = ("0", "1", "2", "3", "12", "007", "99999", "7" * 4001)
# small exponents answer; the large ones reach MAX_POWER_WORK (multi-term
# powers) or the print bound (single terms), and must still finish in time
EXPONENTS = ("0", "1", "2", "3", "7", "40", "270", "99999999999")
MAX_TOKENS = 10
SECONDS_PER_INPUT = 5.0


def random_text(rng: random.Random) -> str:
    tokens = []
    for _ in range(rng.randint(1, MAX_TOKENS)):
        # a number never follows a digit, where the two would merge
        after_digit = bool(tokens) and tokens[-1][-1].isdigit()
        if rng.random() < 0.3 and not after_digit:
            exponent = tokens[-1:] == ["^"] or tokens[-2:] == ["^", "-"]
            tokens.append(rng.choice(EXPONENTS if exponent else NUMBERS))
        else:
            tokens.append(rng.choice(SYMBOLS))
    return "".join(token + rng.choice(("", "", " ")) for token in tokens)


def test_expressions_answer_or_raise_a_usage_error():
    rng = random.Random(61)
    answered = 0
    for _ in range(5000):
        text = random_text(rng)
        start = time.monotonic()
        try:
            check_printable(parse_to_element(text))
            answered += 1
        except ValueError:  # ParseError included
            pass
        assert time.monotonic() - start < SECONDS_PER_INPUT, text
    # the sample must reach evaluation, not only the tokenizer
    assert answered > 200


def test_cli_sample_exits_0_or_2_without_traceback():
    rng = random.Random(67)
    env = dict(os.environ)
    env.pop("QHEIS_TOL", None)
    for _ in range(24):
        text = random_text(rng)
        result = subprocess.run(
            [sys.executable, "-m", "qheis.cli", "normal-form", "--", text],
            capture_output=True, text=True, env=env, timeout=30)
        assert result.returncode in (0, 2), (text, result.stderr)
        assert "Traceback" not in result.stderr, text
        if result.returncode == 2:
            assert result.stderr.startswith("error: "), text


# replacement values for a config entry: wrong types, wrong shapes, values
# out of range and the non-finite floats JSON readers accept
VALUES = (None, True, 0, -1, 2, 0.5, 1.5, -0.5, 1e308, float("nan"),
          float("inf"), 10 ** 30, "", "abc", "0.3", [], {}, [1, 2],
          [[1]], [{"re": 1}], {"re": "x"}, {"a": 1.0}, [[{"re": 1.0}]])


def catalog_config(kind: int) -> dict:
    from qheis.classify import build_catalog_triple
    return {"kind": kind, "tol": 1e-12, "seed": 7,
            **build_catalog_triple(kind).to_json()}


def mutate(config, rng: random.Random):
    """Replace, delete or wrap one entry at a random depth."""
    node = config
    while True:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        if not keys:
            return
        key = rng.choice(list(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and rng.random() < 0.7:
            node = child
            continue
        roll = rng.random()
        if roll < 0.15 and isinstance(node, dict):
            del node[key]
        elif roll < 0.25:
            node[key] = [child]
        else:
            node[key] = copy.deepcopy(rng.choice(VALUES))
        return


@pytest.mark.parametrize("kind", sorted(CATALOG_KINDS))
def test_mutated_configs_raise_only_config_errors(kind, tmp_path):
    rng = random.Random(71 + kind)
    base = json.dumps(catalog_config(kind))
    path = tmp_path / "config.json"
    for trial in range(300):
        if trial % 10 == 9:
            # damage the bytes instead: cut, or insert a byte anywhere
            raw = bytearray(base.encode())
            at = rng.randrange(len(raw))
            if rng.random() < 0.5:
                del raw[at:]
            else:
                raw.insert(at, rng.randrange(256))
            path.write_bytes(bytes(raw))
        else:
            config = json.loads(base)
            for _ in range(rng.randint(1, 3)):
                mutate(config, rng)
            path.write_text(json.dumps(config))
        try:
            triple_from_config(load_config(str(path)))
        except ConfigError:
            pass
