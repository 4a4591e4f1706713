#!/usr/bin/env python3
"""Where a benchmark run spends its host time: a task-clock sampling
profile of one `benchmark/` workload, by symbol.

Builds the benchmark with frame pointers into its own target directory,
starts one workload as a child process, and samples the child's user-space
call chains on its task clock through `perf_event_open(2)` — no `perf`
binary, no privileges beyond `perf_event_paranoid` <= 2, standard library
only. Each sample's leaf frame is its *self* symbol; every distinct symbol
on its chain counts towards that symbol's *inclusive* share. A function
the compiler inlined has no frame of its own and is charged to its caller.

    scripts/profile.py --workload reactive_fabric --seed 14 --seconds 10
    scripts/profile.py --workload fabric_fwd --by crate --top 15
    scripts/profile.py --no-build --workload react_local   # binary as built

Two filters narrow the view. `--under SYMBOL` keeps only the samples whose
call chain passes through a symbol containing SYMBOL, and reports shares
of those samples:

    scripts/profile.py --workload react_local --under dialogue_iteration
    scripts/profile.py --under run_until --top 15

`--lines SYMBOL` breaks the self samples of the symbols containing SYMBOL
down by source line, inline frames included: each row is the innermost
`file:line` of the sampled instruction followed by the lines it was
inlined through, outermost last. The build carries line tables
(`CARGO_PROFILE_RELEASE_DEBUG=line-tables-only`, which changes no
generated code), and `addr2line -i` from binutils resolves them:

    scripts/profile.py --lines 'Simulator::run_until'
    scripts/profile.py --workload fabric_fwd --lines 'Switch::pump' --top 20

Linux on x86_64 or aarch64.
"""

import argparse
import bisect
import collections
import ctypes
import mmap
import os
import platform
import re
import struct
import subprocess
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
TARGET = os.path.join(ROOT, "target", "frame-pointers")
BINARY = os.path.join(TARGET, "release", "benchmark")

PERF_EVENT_OPEN = {"x86_64": 298, "aarch64": 241}
PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK = 1, 1
PERF_SAMPLE_IP, PERF_SAMPLE_TID, PERF_SAMPLE_CALLCHAIN = 1 << 0, 1 << 1, 1 << 5
PERF_RECORD_LOST, PERF_RECORD_SAMPLE = 2, 9
# attr flag bits: disabled, exclude_kernel, exclude_hv, enable_on_exec,
# exclude_callchain_kernel.
FLAGS = (1 << 0) | (1 << 5) | (1 << 6) | (1 << 12) | (1 << 21)
PERF_CONTEXT_MAX = (1 << 64) - 4095
RING_PAGES = 256


def perf_event_open(pid, period_ns):
    """A disabled task-clock sampling event on `pid`, enabled when it execs."""
    attr = struct.pack(
        "<IIQQQQQIIQQQQIiQIHH",
        PERF_TYPE_SOFTWARE,
        112,  # PERF_ATTR_SIZE_VER5
        PERF_COUNT_SW_TASK_CLOCK,
        period_ns,
        PERF_SAMPLE_IP | PERF_SAMPLE_TID | PERF_SAMPLE_CALLCHAIN,
        0,  # read_format
        FLAGS,
        1,  # wakeup_events
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    )
    libc = ctypes.CDLL(None, use_errno=True)
    libc.syscall.restype = ctypes.c_long
    buf = ctypes.create_string_buffer(attr, len(attr))
    nr = PERF_EVENT_OPEN[platform.machine()]
    fd = libc.syscall(nr, buf, ctypes.c_int(pid), ctypes.c_int(-1), ctypes.c_int(-1),
                      ctypes.c_ulong(0))
    if fd < 0:
        err = ctypes.get_errno()
        sys.exit(f"perf_event_open: {os.strerror(err)} (kernel.perf_event_paranoid is "
                 f"{open('/proc/sys/kernel/perf_event_paranoid').read().strip()})")
    return fd


class Ring:
    """The event's sample ring: a metadata page, then 2^n data pages."""

    def __init__(self, fd):
        page = mmap.PAGESIZE
        self.map = mmap.mmap(fd, page * (1 + RING_PAGES), mmap.MAP_SHARED,
                             mmap.PROT_READ | mmap.PROT_WRITE)
        self.base, self.size = page, page * RING_PAGES

    def records(self):
        """Every complete record written since the last call, as bytes."""
        head = struct.unpack_from("<Q", self.map, 1024)[0]
        tail = struct.unpack_from("<Q", self.map, 1032)[0]
        while tail < head:
            at = tail % self.size
            _, _, size = struct.unpack_from("<IHH", self.read(at, 8))
            yield self.read(at, size)
            tail += size
        struct.pack_into("<Q", self.map, 1032, tail)

    def read(self, at, n):
        first = min(n, self.size - at)
        out = self.map[self.base + at:self.base + at + first]
        return out + self.map[self.base:self.base + n - first]


def profile(argv, period_ns):
    """Run `argv` and return its user call chains, leaf first, and the
    count of samples the ring dropped, plus its executable mappings."""
    go_r, go_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(go_w)
        os.read(go_r, 1)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.execv(argv[0], argv)
    os.close(go_r)
    fd = perf_event_open(pid, period_ns)
    ring = Ring(fd)
    os.write(go_w, b"x")
    os.close(go_w)
    chains, lost, maps = [], 0, []
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if not maps:
            maps = exec_maps(pid)
        for rec in ring.records():
            kind = struct.unpack_from("<I", rec)[0]
            if kind == PERF_RECORD_SAMPLE:
                nr = struct.unpack_from("<Q", rec, 24)[0]
                ips = struct.unpack_from(f"<{nr}Q", rec, 32)
                chains.append([ip for ip in ips if ip < PERF_CONTEXT_MAX])
            elif kind == PERF_RECORD_LOST:
                lost += struct.unpack_from("<Q", rec, 16)[0]
        if done:
            if os.waitstatus_to_exitcode(status) != 0:
                print(f"warning: the workload exited with status {status}", file=sys.stderr)
            return chains, lost, maps
        time.sleep(0.02)


def exec_maps(pid):
    """`(start, end, file offset, path)` of the executable file mappings
    in `pid`, once the benchmark binary is among them."""
    try:
        lines = open(f"/proc/{pid}/maps").read().splitlines()
    except OSError:
        return []
    out = []
    for line in lines:
        parts = line.split()
        if len(parts) >= 6 and "x" in parts[1] and parts[5].startswith("/"):
            start, end = (int(x, 16) for x in parts[0].split("-"))
            out.append((start, end, int(parts[2], 16), os.path.realpath(parts[5])))
    real = os.path.realpath(BINARY)
    return out if any(m[3] == real for m in out) else []


def elf_symbols(path):
    """Sorted `(address, size, name)` of the binary's function symbols, and
    its `(file offset, vaddr, file size)` load segments."""
    data = open(path, "rb").read()
    if data[:4] != b"\x7fELF" or data[4] != 2:
        sys.exit(f"{path}: not a 64-bit ELF file")
    phoff, shoff = struct.unpack_from("<QQ", data, 0x20)
    phentsize, phnum, shentsize, shnum = struct.unpack_from("<HHHH", data, 0x36)
    segments = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", data, phoff + i * phentsize)
        if p_type == 1:  # PT_LOAD
            segments.append((p_offset, p_vaddr, p_filesz))
    sections = [struct.unpack_from("<IIQQQQIIQQ", data, shoff + i * shentsize)
                for i in range(shnum)]
    symbols = []
    for sh in sections:
        if sh[1] != 2:  # SHT_SYMTAB
            continue
        strtab = sections[sh[6]]
        for off in range(sh[4], sh[4] + sh[5], 24):
            name, info, _, _, value, size = struct.unpack_from("<IBBHQQ", data, off)
            if info & 0xF == 2 and value:  # STT_FUNC
                start = strtab[4] + name
                symbols.append((value, size, data[start:data.index(b"\0", start)].decode()))
    if not symbols:
        sys.exit(f"{path}: no symbol table (stripped?)")
    symbols.sort()
    return symbols, segments


ESCAPES = {"$LT$": "<", "$GT$": ">", "$RF$": "&", "$BP$": "*", "$C$": ",",
           "$SP$": "@", "$u20$": " ", "$u27$": "'", "$u5b$": "[", "$u5d$": "]",
           "$u7b$": "{", "$u7d$": "}", "$u7e$": "~", "$u3b$": ";", "$u2b$": "+",
           "$u22$": '"'}


def demangle(name):
    """A legacy-mangled Rust path without its hash; anything else as is."""
    if not name.startswith("_ZN"):
        return name
    parts, i = [], 3
    while i < len(name) and name[i] != "E":
        m = re.match(r"\d+", name[i:])
        if not m:
            return name
        n, i = int(m.group()), i + len(m.group())
        parts.append(name[i:i + n])
        i += n
    if parts and re.fullmatch(r"h[0-9a-f]{16}", parts[-1]):
        parts.pop()
    path = "::".join(p[1:] if p.startswith("_$") else p for p in parts)
    path = re.sub(r"\$[A-Za-z0-9]+\$", lambda m: ESCAPES.get(m.group(), m.group()), path)
    return path.replace("..", "::")


class Symbolizer:
    def __init__(self, symbols, segments, maps):
        self.addrs = [s[0] for s in symbols]
        self.symbols, self.segments, self.maps = symbols, segments, maps
        self.binary = os.path.realpath(BINARY)
        self.cache = {}

    def __call__(self, ip):
        if ip not in self.cache:
            self.cache[ip] = self.lookup(ip)
        return self.cache[ip]

    def vaddr(self, ip):
        """The benchmark binary's own address of `ip`, or the bracketed
        name of the mapping it falls in instead."""
        for start, end, offset, path in self.maps:
            if start <= ip < end:
                fileoff = ip - start + offset
                break
        else:
            return "[unknown]"
        if path != self.binary:
            return f"[{os.path.basename(path)}]"
        for p_offset, p_vaddr, p_filesz in self.segments:
            if p_offset <= fileoff < p_offset + p_filesz:
                return fileoff - p_offset + p_vaddr
        return "[unknown]"

    def lookup(self, ip):
        vaddr = self.vaddr(ip)
        if isinstance(vaddr, str):
            return vaddr
        i = bisect.bisect_right(self.addrs, vaddr) - 1
        if i < 0:
            return "[unknown]"
        addr, size, name = self.symbols[i]
        if size and vaddr >= addr + size:
            return "[unknown]"
        return demangle(name)


def crate_of(symbol):
    """The crate a demangled path names first (`<T as Trait>` by `T`)."""
    return re.split(r"::|<|>| ", symbol.lstrip("<"))[0] or symbol


def source_lines(vaddrs):
    """`{vaddr: "file:line ← caller:line ← …"}` through `addr2line -i`,
    innermost inline frame first, paths shortened to the repository."""
    vaddrs = sorted(vaddrs)
    out = subprocess.run(["addr2line", "-i", "-a", "-e", BINARY] + [hex(a) for a in vaddrs],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    root = os.path.realpath(ROOT) + os.sep
    chains, current = {}, None
    for line in out:
        if line.startswith("0x"):
            current = int(line, 16)
            chains[current] = []
        elif current is not None:
            where = re.sub(r" \(discriminator \d+\)$", "", line).replace(root, "")
            chains[current].append(re.sub(r"^.*/(library|\.cargo)/", r"\1/", where))
    return {a: " ← ".join(chains.get(a) or ["??:0"]) for a in vaddrs}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="reactive_fabric")
    ap.add_argument("--seed", type=int, default=14)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--hz", type=int, default=4000, help="samples per second of task clock")
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--by", choices=["symbol", "crate"], default="symbol")
    ap.add_argument("--no-build", action="store_true", help="use the binary as built")
    ap.add_argument("--under", metavar="SYMBOL",
                    help="only samples whose call chain passes through SYMBOL")
    ap.add_argument("--lines", metavar="SYMBOL",
                    help="break SYMBOL's self samples down by file:line")
    args = ap.parse_args()

    if not args.no_build:
        env = dict(os.environ, RUSTFLAGS="-C force-frame-pointers=yes", CARGO_TARGET_DIR=TARGET,
                   CARGO_PROFILE_RELEASE_DEBUG="line-tables-only")
        subprocess.run(["cargo", "build", "--release", "--quiet", "--offline", "--manifest-path",
                        os.path.join(ROOT, "benchmark", "Cargo.toml")], env=env, check=True)
    argv = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0"]
    chains, lost, maps = profile(argv, max(1, 1_000_000_000 // args.hz))
    if not chains:
        sys.exit("no samples")
    symbols, segments = elf_symbols(BINARY)
    symbol = Symbolizer(symbols, segments, maps)

    def name(ip):
        return crate_of(symbol(ip)) if args.by == "crate" else symbol(ip)

    self_n, incl_n = collections.Counter(), collections.Counter()
    leaf_ips, total = collections.Counter(), 0
    for chain in chains:
        if not chain:
            continue
        # Return addresses point past their call: step back into it.
        ips = [ip if k == 0 else ip - 1 for k, ip in enumerate(chain)]
        if args.under and not any(args.under in symbol(ip) for ip in ips):
            continue
        frames = [name(ip) for ip in ips]
        total += 1
        self_n[frames[0]] += 1
        incl_n.update(set(frames))
        if args.lines and args.lines in symbol(ips[0]):
            leaf_ips[ips[0]] += 1
    if not total:
        sys.exit(f"no samples pass through {args.under}")
    under = f", {total} under {args.under}" if args.under else ""
    print(f"# {args.workload} seed {args.seed} seconds {args.seconds}: {len(chains)} samples at "
          f"{args.hz} Hz of task clock, {lost} lost{under}")
    if args.lines:
        by_line = collections.Counter()
        vaddrs = {ip: symbol.vaddr(ip) for ip in leaf_ips}
        where = source_lines({v for v in vaddrs.values() if not isinstance(v, str)})
        for ip, n in leaf_ips.items():
            by_line[where.get(vaddrs[ip], "??:0")] += n
        own = sum(by_line.values())
        if not own:
            sys.exit(f"no self samples in symbols containing {args.lines}")
        print(f"{own} self samples in symbols containing {args.lines} "
              f"({100 * own / total:.2f}% of all):\n{'share':>7}  file:line ← inlined into")
        for line, n in by_line.most_common(args.top):
            print(f"{100 * n / own:6.2f}%  {line}")
        return
    print(f"{'self':>7} {'incl':>7}  {args.by}")
    ranked = sorted(set(self_n) | set(incl_n), key=lambda s: (-self_n[s], -incl_n[s], s))
    for sym in ranked[:args.top]:
        print(f"{100 * self_n[sym] / total:6.2f}% {100 * incl_n[sym] / total:6.2f}%  {sym}")
    print(f"\nby inclusive share:\n{'incl':>7} {'self':>7}  {args.by}")
    for sym in sorted(incl_n, key=lambda s: (-incl_n[s], s))[:args.top]:
        print(f"{100 * incl_n[sym] / total:6.2f}% {100 * self_n[sym] / total:6.2f}%  {sym}")


if __name__ == "__main__":
    main()
