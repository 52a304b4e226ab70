"""JSON-friendly serialization of scalars, points, bodies, triangles and maps.

Exact rationals round-trip as "p/q" strings; floats stay numbers.  ``dumps``
writes canonical JSON (sorted keys, no spaces).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Dict

from .bodies import ConvexBody, Disk, DiskIntersection, HullOfUnion, Polygon, Triangle
from .geom import Point, Scalar
from .transforms import Homothety, PlaneMap, Translation


def scalar_to_json(x: Scalar):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return x


def scalar_from_json(v) -> Scalar:
    if isinstance(v, str):
        num, _, den = v.partition("/")
        return Fraction(int(num), int(den or 1))
    return v


def point_to_json(p: Point):
    return [scalar_to_json(p.x), scalar_to_json(p.y)]


def point_from_json(v) -> Point:
    return Point(scalar_from_json(v[0]), scalar_from_json(v[1]))


def body_to_json(u: ConvexBody) -> Dict[str, Any]:
    if isinstance(u, Polygon):
        return {"kind": "polygon", "vertices": [point_to_json(p) for p in u.vertices]}
    if isinstance(u, Disk):
        return {
            "kind": "disk",
            "center": point_to_json(u.center),
            "radius": scalar_to_json(u.radius),
        }
    if isinstance(u, DiskIntersection):
        return {"kind": "disk_intersection", "disks": [body_to_json(d) for d in u.disks]}
    if isinstance(u, HullOfUnion):
        return {
            "kind": "hull_of_union",
            "base": body_to_json(u.base),
            "extra": [point_to_json(p) for p in u.extra],
        }
    raise TypeError(f"unknown body {type(u)}")


def body_from_json(d: Dict[str, Any]) -> ConvexBody:
    kind = d["kind"]
    if kind == "polygon":
        return Polygon(tuple(point_from_json(v) for v in d["vertices"]))
    if kind == "disk":
        return Disk(point_from_json(d["center"]), scalar_from_json(d["radius"]))
    if kind == "disk_intersection":
        return DiskIntersection(tuple(body_from_json(x) for x in d["disks"]))
    if kind == "hull_of_union":
        return HullOfUnion(
            body_from_json(d["base"]), tuple(point_from_json(p) for p in d["extra"])
        )
    raise ValueError(f"unknown body kind {kind!r}")


def triangle_to_json(t: Triangle):
    return [point_to_json(p) for p in t.points]


def triangle_from_json(v) -> Triangle:
    return Triangle(*(point_from_json(p) for p in v))


def map_to_json(m: PlaneMap) -> Dict[str, Any]:
    if isinstance(m, Translation):
        return {
            "kind": "translation",
            "vector": [scalar_to_json(m.vector[0]), scalar_to_json(m.vector[1])],
        }
    if isinstance(m, Homothety):
        return {
            "kind": "homothety",
            "center": point_to_json(m.center),
            "ratio": scalar_to_json(m.ratio),
        }
    raise TypeError(f"unknown map {type(m)}")


def map_from_json(d: Dict[str, Any]) -> PlaneMap:
    if d["kind"] == "translation":
        return Translation((scalar_from_json(d["vector"][0]), scalar_from_json(d["vector"][1])))
    if d["kind"] == "homothety":
        return Homothety(point_from_json(d["center"]), scalar_from_json(d["ratio"]))
    raise ValueError(f"unknown map kind {d['kind']!r}")


def dumps(obj: Dict[str, Any]) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def loads(s: str) -> Dict[str, Any]:
    return json.loads(s)

