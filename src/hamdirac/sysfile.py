"""Line-oriented system files.

    # comment
    system cawley
    coordinates q1 q2 q3
    order 1
    L = d(q1)*d(q3) + (1/2)*q2*q3^2

    [chart]
    Xi1 = 2*q1 + (2/3)*p3 - q2 - q4
    ...

    [gauge]
    zeta1 = -P1

    [options]
    path = ssok
    fix_endpoint = t1
    epsilon ThU1 = 1/2

Unknown keys, malformed lines and names given twice are rejected with their
line number.  The chart and gauge expressions are stored as text; they can
only be parsed once the analysis has registered momenta and chart symbols.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .symbols import _Record


class SysFileError(Exception):
    pass


class InputError(Exception):  # input the analysis or the command line refuses
    pass


ROLE_PATTERN = re.compile(r"^(Xi|Psi|ThU|ThD|Q|P)([1-9][0-9]*)$")


class SystemFile(_Record):
    __slots__ = ("name", "coordinates", "order", "lagrangian", "chart_rows", "gauge", "options", "epsilon")

    def __init__(self, name: str, coordinates: tuple, order: int, lagrangian: str, chart_rows: tuple = (),
                 gauge: tuple = (), options: dict = {}, epsilon: dict = {}):
        # chart_rows: (name, expr text, line no); gauge: (zeta name, expr text,
        # line no); epsilon: chart row name -> Fraction
        self._fields(name, coordinates, order, lagrangian, chart_rows, gauge, options, epsilon)


_KNOWN_OPTIONS = {"path", "fix_endpoint"}


def parse_system_file(text: str, filename: str = "<input>") -> SystemFile:
    name = None
    coords = None
    order = None
    lagrangian = None
    chart_rows = []
    gauge = []
    options = {}
    epsilon = {}
    section = None
    header = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        def err(msg):
            raise SysFileError(f"{filename}:{lineno}: {msg}")

        if line.startswith("["):
            if line not in ("[chart]", "[gauge]", "[options]"):
                err(f"unknown section {line}")
            section = line[1:-1]
            continue
        if section is None:
            key, _, rest = line.partition(" ")
            rest = rest.strip()
            if key in header:
                err(f"{key!r} given twice")
            header.add(key)
            if key == "system":
                name = rest or err("system needs a name")
            elif key == "coordinates":
                coords = rest.split()
                if not coords:
                    err("coordinates needs at least one name")
            elif key == "order":
                if rest not in ("1", "2"):
                    err("order must be 1 or 2")
                order = int(rest)
            elif key == "L":
                if not rest.startswith("="):
                    err("expected 'L = <expression>'")
                lagrangian = rest[1:].strip()
            else:
                err(f"unknown key {key!r}")
        elif section == "chart":
            m = re.match(r"^(\w+)\s*=\s*(.+)$", line)
            if not m:
                err("chart rows look like 'Name = expression'")
            if not ROLE_PATTERN.match(m.group(1)):
                err(f"chart row name {m.group(1)!r} must be Xi#, Psi#, ThU#, ThD#, Q# or P#, # = 1, 2, ...")
            if any(r[0] == m.group(1) for r in chart_rows):
                err(f"chart row {m.group(1)!r} given twice")
            chart_rows.append((m.group(1), m.group(2).strip(), lineno))
        elif section == "gauge":
            m = re.match(r"^(\w+)\s*=\s*(.+)$", line)
            if not m:
                err("gauge lines look like 'zetaN = expression'")
            if any(g[0] == m.group(1) for g in gauge):
                err(f"gauge multiplier {m.group(1)!r} given twice")
            gauge.append((m.group(1), m.group(2).strip(), lineno))
        elif section == "options":
            m = re.match(r"^epsilon\s+(\w+)\s*=\s*(\S+)$", line)
            if m:
                if m.group(1) in epsilon:
                    err(f"epsilon {m.group(1)!r} given twice")
                try:
                    epsilon[m.group(1)] = Fraction(m.group(2))
                except (ValueError, ZeroDivisionError):
                    err(f"bad rational {m.group(2)!r}")
                continue
            m = re.match(r"^(\w+)\s*=\s*(\S+)$", line)
            if not m:
                err("options look like 'key = value' or 'epsilon Name = value'")
            key, val = m.group(1), m.group(2)
            if key not in _KNOWN_OPTIONS:
                err(f"unknown option {key!r}")
            if key in options:
                err(f"option {key!r} given twice")
            if key == "path" and val not in ("ssok", "pons"):
                err("path must be ssok or pons")
            if key == "fix_endpoint" and val not in ("t1", "t2"):
                err("fix_endpoint must be t1 or t2")
            options[key] = val

    if name is None:
        raise SysFileError(f"{filename}: missing 'system <name>'")
    if coords is None:
        raise SysFileError(f"{filename}: missing 'coordinates ...'")
    if order is None:
        raise SysFileError(f"{filename}: missing 'order ...'")
    if lagrangian is None:
        raise SysFileError(f"{filename}: missing 'L = ...'")
    if len(set(coords)) != len(coords):
        raise SysFileError(f"{filename}: duplicate coordinate names")
    return SystemFile(name, coords, order, lagrangian, chart_rows, gauge, options, epsilon)


def load_system_file(path) -> SystemFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system_file(fh.read(), filename=str(path))
