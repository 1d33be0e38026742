#!/usr/bin/env python3
"""Symbolize and bucket the samples that libhostprof.so wrote.

Usage:
    hostprof.py [--inline] [--callers] [--top N] PROFILE [PROFILE ...]

Each PROFILE is one process's output (see tools/hostprof/hostprof.cc).
Sample addresses are mapped through the process's /proc/self/maps and
the object's ELF load segments, then symbolized with `addr2line -a -f
-i -C`, so build the profiled program with -g (that adds debug
information without changing the generated code).

Every sample lands in one bucket:
    push/pop       step::dam::Channel::push / pop
    dispatch       step::dam::Scheduler (drain, enqueueAt, makeReadyAt, ...)
    operator body  an operator's coroutine (step::*Op::run)
    value/token    step::Value / Token / Tile (and TupleVal, ...) members
    rest           everything else (payload functions, setup, libc, ...)

By default a sample belongs to the function that contains its address,
so inlined code counts towards its caller (an enqueueAt inlined into
Channel::push is push/pop). --inline instead takes the innermost
inlined frame that names a bucket. --callers attributes a sample whose
address lies outside the main executable (libc's memcpy or malloc, say)
to the nearest caller inside it; the caller chain is only trustworthy
when the program keeps frame pointers (-fno-omit-frame-pointer).

The bucket table is printed first, then the --top (default 25)
containing functions.
"""

import argparse
import collections
import re
import struct
import subprocess
import sys

BUCKETS = [
    ("push/pop", re.compile(r"\bstep::dam::Channel::(push|pop)\b")),
    ("dispatch", re.compile(r"\bstep::dam::Scheduler::")),
    ("operator body", re.compile(r"\bstep::\w+Op::run\(")),
    ("value/token", re.compile(
        r"\bstep::(Value|Token|Tile|TupleVal|SelectorIndices|BufferRef)::")),
]
ORDER = [name for name, _ in BUCKETS] + ["rest"]


def bucket_of(name):
    for bucket, pat in BUCKETS:
        if pat.search(name):
            return bucket
    return None


def read_profile(path):
    """Returns (maps, samples): maps as (lo, hi, offset, object) of the
    executable mappings, samples as lists of addresses, pc first."""
    maps, samples, part = [], [], None
    with open(path) as f:
        header = f.readline().split()
        if header[:2] != ["hostprof", "1"]:
            sys.exit(f"hostprof: {path} is not a hostprof profile")
        for line in f:
            line = line.rstrip("\n")
            if line in ("maps", "samples"):
                part = line
            elif part == "maps":
                fields = line.split(None, 5)
                if len(fields) == 6 and "x" in fields[1]:
                    lo, hi = (int(x, 16) for x in fields[0].split("-"))
                    maps.append((lo, hi, int(fields[2], 16), fields[5]))
            elif part == "samples" and line:
                samples.append([int(x, 16) for x in line.split()])
    return maps, samples


_load_segments = {}


def load_segments(obj):
    """PT_LOAD (file offset, vaddr, file size) triples of an ELF64 file."""
    if obj not in _load_segments:
        segs = []
        try:
            with open(obj, "rb") as f:
                ident = f.read(64)
                if ident[:4] == b"\x7fELF" and ident[4] == 2:
                    phoff, = struct.unpack_from("<Q", ident, 32)
                    phentsize, phnum = struct.unpack_from("<HH", ident, 54)
                    f.seek(phoff)
                    table = f.read(phentsize * phnum)
                    for i in range(phnum):
                        p_type, _, p_offset, p_vaddr, _, p_filesz = \
                            struct.unpack_from("<IIQQQQ", table, i * phentsize)
                        if p_type == 1:
                            segs.append((p_offset, p_vaddr, p_filesz))
        except OSError:
            pass
        _load_segments[obj] = segs
    return _load_segments[obj]


def locate(maps, addr):
    """(object, link-time address) of @addr, or (None, None)."""
    for lo, hi, off, obj in maps:
        if lo <= addr < hi:
            foff = addr - lo + off
            for p_offset, p_vaddr, p_filesz in load_segments(obj):
                if p_offset <= foff < p_offset + p_filesz:
                    return obj, foff - p_offset + p_vaddr
            return obj, foff
    return None, None


def symbolize(obj, addrs):
    """{address: [frame names, innermost first]} via addr2line -i."""
    addrs = sorted(addrs)
    proc = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", obj],
                          input="".join(f"{a:x}\n" for a in addrs),
                          capture_output=True, text=True, check=False)
    frames, current = {}, None
    lines = proc.stdout.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            current = frames.setdefault(int(lines[i], 16), [])
            i += 1
            continue
        if current is not None:
            current.append(lines[i])
        i += 2  # function name, then file:line
    return frames


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("profiles", nargs="+")
    ap.add_argument("--inline", action="store_true",
                    help="bucket by the innermost inlined frame")
    ap.add_argument("--callers", action="store_true",
                    help="attribute samples outside the executable to "
                         "their nearest caller inside it")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()

    located = []  # (object, address) per sample
    dropped = 0
    for path in args.profiles:
        maps, samples = read_profile(path)
        main_obj = maps[0][3] if maps else None
        for chain in samples:
            obj, addr = locate(maps, chain[0])
            if args.callers and obj != main_obj:
                for ret in chain[1:]:
                    cobj, caddr = locate(maps, ret - 1)
                    if cobj == main_obj:
                        obj, addr = cobj, caddr
                        break
            if obj is None:
                dropped += 1
            else:
                located.append((obj, addr))
    if not located:
        sys.exit("hostprof: no samples")

    by_obj = collections.defaultdict(set)
    for obj, addr in located:
        by_obj[obj].add(addr)
    frames = {}
    for obj, addrs in by_obj.items():
        for addr, names in symbolize(obj, addrs).items():
            frames[obj, addr] = names

    buckets = collections.Counter()
    functions = collections.Counter()
    for obj, addr in located:
        names = frames.get((obj, addr)) or ["??"]
        outer = names[-1]
        if outer == "??":
            outer = f"?? ({obj.rsplit('/', 1)[-1]})"
        functions[outer] += 1
        chosen = None
        if args.inline:
            chosen = next((b for b in map(bucket_of, names) if b), None)
        else:
            chosen = bucket_of(outer)
        buckets[chosen or "rest"] += 1

    total = len(located)
    print(f"{total} samples in {len(args.profiles)} profile(s)"
          + (f", {dropped} outside any mapping" if dropped else "")
          + (" (innermost inlined frame)" if args.inline
             else " (containing function)"))
    for name in ORDER:
        print(f"  {name:14s} {buckets[name]:8d} {100.0 * buckets[name] / total:6.1f} %")
    if args.top > 0:
        print(f"top {args.top} containing functions:")
    for name, n in functions.most_common(args.top):
        print(f"  {100.0 * n / total:5.1f} %  {name[:150]}")


if __name__ == "__main__":
    main()
