# blindim/configfile.py
"""Plain-text key=value configuration files.

Format: one `key = value` pair per line, `#` starts a comment.  Lists are
comma-separated; matrices separate rows with `;` (e.g. `cir_len = 4,2; 2,4`).
SNR is in dB.
"""

from __future__ import annotations

from .model import SystemConfig


class ConfigParseError(ValueError):
    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__("line %d: %s" % (line_no, message))


SYSTEM_KEYS = {"K", "users_per_cell", "cir_len", "snr_db", "subblocks", "seed", "symbol_model"}


def parse_config_text(text) -> dict:
    """Parse raw text into a flat {key: string-value} dict with line tracking."""
    out = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(line_no, "expected 'key = value', got %r" % raw.strip())
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigParseError(line_no, "empty key")
        if key not in SYSTEM_KEYS:
            raise ConfigParseError(line_no, "unknown key %r" % key)
        if key in out:
            raise ConfigParseError(line_no, "duplicate key %r" % key)
        out[key] = (line_no, value)
    return out


def _parsed(pairs, key, default, parse, message):
    """parse(value) of key, or default when key is absent.  A value parse
    rejects raises ConfigParseError on its line, saying
    message.format(key=key, value=value)."""
    if key not in pairs:
        return default
    line_no, value = pairs[key]
    try:
        return parse(value)
    except ValueError:
        raise ConfigParseError(line_no, message.format(key=key, value=value))


def load_system_config(text) -> SystemConfig:
    pairs = parse_config_text(text)
    integer = "{key} must be an integer, got {value!r}"
    K = _parsed(pairs, "K", 2, int, integer)
    users = _parsed(pairs, "users_per_cell", [2] * K,
                    lambda v: [int(x) for x in v.split(",")],
                    "{key} must be a comma-separated integer list")
    if len(users) == 1:
        users = users * K
    cir = _parsed(pairs, "cir_len", None,
                  lambda v: [[int(x) for x in row.split(",")] for row in v.split(";")],
                  "{key} must be ';'-separated rows of integers")
    if cir is None:
        cir = [[4 if k == i else 2 for i in range(K)] for k in range(K)]
    # the other keys only where the file sets them: SystemConfig owns their defaults
    fields = dict(K=K, users_per_cell=users, cir_len=cir)
    for key, parse, message in (("snr_db", float, "{key} must be a number, got {value!r}"),
                                ("subblocks", int, integer), ("seed", int, integer),
                                ("symbol_model", str, "")):
        if key in pairs:
            fields[key] = _parsed(pairs, key, None, parse, message)
    return SystemConfig(**fields)
