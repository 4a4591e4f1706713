#!/usr/bin/env python3
"""ROADMAP aim 2's tracked number: non-test lines of Rust per crate.

A line is a *test* line when it belongs to the item that follows a
`#[cfg(test)]` attribute (the attribute line through the item's closing
brace or semicolon, or through a field's comma, braces matched outside
strings, chars and comments),
or to a file that is only reachable through a `#[cfg(test)] mod x;`.
Every other line of `crates/*/src/**/*.rs` counts, comments and blanks
included.

    scripts/non_test_lines.py            # per-crate table, then the rules
    scripts/non_test_lines.py --files    # per-file rows as well

Exit status 1 when a rule at the bottom of this file is broken.
"""

import glob
import os
import re
import sys

ATTR = "#[cfg(test)]"
# Words that make an attributed item more than a field.
ITEM = re.compile(r"\b(fn|impl|struct|enum|trait|union|where)\b")


def code_mask(text):
    """For each character: is it code (not inside a comment, string or
    char literal)? Good enough to match the braces of well-formed Rust."""
    mask = [True] * len(text)
    i, n = 0, len(text)

    def blank(a, b):
        for k in range(a, min(b, n)):
            mask[k] = False

    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            blank(i, j)
            i = j
        elif text.startswith("/*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if text.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif text.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            blank(i, j)
            i = j
        elif c == '"' or (c == "r" and text[i + 1 : i + 2] in ('"', "#") and raw_start(text, i)):
            if c == '"':
                j = i + 1
                while j < n and text[j] != '"':
                    j += 2 if text[j] == "\\" else 1
                j += 1
            else:
                hashes = 0
                j = i + 1
                while text[j] == "#":
                    hashes, j = hashes + 1, j + 1
                end = text.find('"' + "#" * hashes, j + 1)
                j = n if end < 0 else end + 1 + hashes
            blank(i, j)
            i = j
        elif c == "'":
            # A char literal closes within a few characters; a lifetime
            # does not close at all.
            if text[i + 1 : i + 2] == "\\":
                j = text.find("'", i + 2)
                blank(i, j + 1)
                i = j + 1
            elif text[i + 2 : i + 3] == "'":
                blank(i, i + 3)
                i += 3
            else:
                i += 1
        else:
            i += 1
    return mask


def raw_start(text, i):
    """Does a raw string literal start at `text[i] == 'r'`?"""
    if i and (text[i - 1].isalnum() or text[i - 1] == "_"):
        return False
    j = i + 1
    while j < len(text) and text[j] == "#":
        j += 1
    return text[j : j + 1] == '"'


def test_spans(text):
    """`(first_line, last_line, child_module)` of every `#[cfg(test)]`
    item, 0-based inclusive; `child_module` names an out-of-line `mod`."""
    mask = code_mask(text)
    spans = []
    at = 0
    while True:
        at = text.find(ATTR, at)
        if at < 0:
            return spans
        if not mask[at]:
            at += len(ATTR)
            continue
        depth, angle, j, end = 0, 0, at + len(ATTR), len(text)
        while j < len(text):
            if mask[j]:
                c = text[j]
                # Attribute brackets may hold braces of their own; an item
                # ends at its `;` (no body) or at the `}` closing its body.
                # A field of a struct or of a struct literal ends at its
                # `,`, or just before the bracket closing the list it is
                # the last element of. Commas inside generic arguments and
                # `where` clauses do not count: under rustfmt a `<` glued
                # to the word before it opens generics, while a comparison
                # has spaces.
                if c in "{[(":
                    depth += 1
                elif c in "}])":
                    depth -= 1
                    if depth < 0:
                        end = len(text[:j].rstrip()) - 1
                        break
                    if depth == 0 and c == "}":
                        end = j
                        break
                elif c == "<" and (text[j - 1].isalnum() or text[j - 1] in "_:"):
                    angle += 1
                elif c == ">" and angle and text[j - 1] not in "-=":
                    angle -= 1
                elif c == ";" and depth == 0:
                    end = j
                    break
                elif c == "," and depth == 0 and not angle and not ITEM.search(text, at, j):
                    end = j
                    break
            j += 1
        item = "".join(ch if ok else " " for ch, ok in zip(text[at:end], mask[at:end]))
        words = item.replace("]", "] ").split()
        child = None
        if text[end : end + 1] == ";" and "mod" in words:
            child = words[words.index("mod") + 1]
        spans.append((text.count("\n", 0, at), text.count("\n", 0, end), child))
        at = end + 1


def module_file(parent, child):
    """Where `mod child;` declared in file `parent` lives."""
    here, name = os.path.split(parent)
    stem = os.path.splitext(name)[0]
    inside = here if stem in ("lib", "main", "mod") else os.path.join(here, stem)
    for path in (os.path.join(inside, child + ".rs"), os.path.join(inside, child, "mod.rs")):
        if os.path.exists(path):
            return path
    return None


def count_crate(src):
    """`{file: non-test lines}` for every `.rs` under `src`."""
    files = sorted(glob.glob(os.path.join(src, "**", "*.rs"), recursive=True))
    counts, test_only = {}, set()
    for path in files:
        text = open(path, encoding="utf-8").read()
        lines = text.count("\n") + (not text.endswith("\n") and text != "")
        test = set()
        for first, last, child in test_spans(text):
            test.update(range(first, last + 1))
            if child and module_file(path, child):
                test_only.add(module_file(path, child))
        counts[path] = lines - len(test)
    # A test-only module takes the files below it along.
    for path in files:
        stem = os.path.splitext(path)[0]
        if any(path == t or stem.startswith(os.path.splitext(t)[0] + os.sep) for t in test_only):
            counts[path] = 0
    return counts


def main():
    show_files = "--files" in sys.argv[1:]
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    os.chdir(root)
    total, crates = 0, {}
    for crate in sorted(os.listdir("crates")):
        counts = count_crate(os.path.join("crates", crate, "src"))
        crates[crate] = counts
        lines = sum(counts.values())
        total += lines
        print(f"{crate:18} {lines:6}")
        if show_files:
            for path, n in counts.items():
                print(f"  {os.path.relpath(path, os.path.join('crates', crate, 'src')):28} {n:6}")
    print(f"{'total':18} {total:6}")

    # The rules. `mantis-agent` is components with disjoint write scopes
    # (DESIGN.md §16): no file of it may grow back into a monolith, the
    # loop's own file stays the loop, and the crate may shrink, not grow.
    # (The decomposition was meant to land at or under the 4 529 lines it
    # started from and landed at 4 729: the ceiling is where it is, not
    # where it was wanted. PR 20 was meant to hold 4 729 and landed at
    # 4 777: the loop now builds its ops in, and reads into, vectors it
    # keeps — `Isolation::spare`, the snapshot's two read vectors, the
    # lend / take-back around each submit, `submit_reusing` on the trait
    # and on `Health` — which is code where `.clone()` was a word; three
    # typed calls nobody made were deleted against it. PR 21 was meant to
    # hold 4 777 and landed at 4 886: every record on the agent's thread of
    # control goes through handles resolved once — seven more in
    # `AgentMetrics`, `DriverMetrics` beside the per-op ids — and every
    # entry point flushes the stack's buffer on the way out, where a
    # by-name call was a line; `stats()` reads two fields `Health` keeps.)
    #
    # `mantis-telemetry` and the workspace as a whole only ratchet down
    # from where PR 21 left them (1 168 and 35 348; that PR was meant to
    # hold 1 178 and 35 186 — the first held, the second did not, by the
    # 109 lines above and 71 in `mantis-control`, where the channel and the
    # plane learned whose buffer a frame is recorded into).
    #
    # PR 22 is the first to re-base *down*: `ReactionEngine`, the VM →
    # walker fallback and 18 uncalled `pub fn`s went (`mantis-agent` 4 886 →
    # 4 808, `mantis-telemetry` 1 168 → 1 165, the workspace 35 348 →
    # 35 119), and `reaction-interp` gets a ceiling where it landed (2 423 →
    # 2 389): the VM is the one executor and the walker its reference, so
    # neither has a reason to grow a second path again.
    #
    # The operand-resolved VM (DESIGN.md §7) was allowed to grow
    # `reaction-interp` to 2 539 and the workspace to 35 239;
    # `reaction-interp` shrank instead (2 389 → 2 368: a register
    # per operand-stack depth and steps counted by the op they precede
    # delete the tick-motion and stack plumbing; 43 op variants became
    # 27), `mantis-agent` lost a line (4 808 → 4 807, the driver's
    # memo is a flag pair per table), and the workspace grew by the 31
    # lines of `p4r-compiler`'s generator that emit narrowing stores —
    # the fuzz campaign's oracle for a store that skips its truncation,
    # which no seed caught before. All three ratchet down to where they
    # landed.
    #
    # Until the span scanner learned that a `#[cfg(test)]` field ends at
    # its comma, it ran from `netsim/src/sim.rs`'s test-only fields to the
    # end of the next body and left 107 lines of that file uncounted: the
    # workspace stood at 35 235, not 35 128. Counted that way, deleting the
    # worker pool (DESIGN.md §12) took the workspace to 34 570, `netsim`
    # from 2 785 to 2 527 and `bench` from 4 115 to 3 793. Both crates get
    # a ceiling where they landed: the drain has one executor and the
    # figures harness no scaling sweep, so neither has a reason to grow a
    # second path back.
    #
    # One PHV freelist per program shape (DESIGN.md §14) deleted what
    # per-switch freelists needed once the pool was gone: the buffer
    # index beside the readiness index, the injector's donor scan and
    # steal, the settle step the workers had split off the visit. `netsim`
    # ratchets to where it landed (2 527 → 2 438), and so does the
    # workspace (34 570 → 34 471). `rmt-sim`, the largest crate, gets a
    # ceiling where it landed (5 108 → 5 098): a switch shares its freelist
    # by handle and no longer answers for it, so nothing there has a
    # reason to grow a per-switch buffer API back.
    #
    # A hop that moves half the bytes (DESIGN.md §6, §14) re-bases five
    # numbers to where it landed. `mantis-telemetry` 1 165 → 1 001 and
    # `mantis-agent` 4 807 → 4 750: records land in the registry when they
    # are made, so `Writer`, its compact records, the wide-value escape and
    # every flush point went — the switch's, the agent's on each way out,
    # the plane's. `netsim` 2 438 → 2 487, up: a wire event names its
    # packet by a slot of the in-flight slab (`InFlight`), and the
    # wheel remembers where it last cascaded; both pay on `reactive_fabric`
    # (EXPERIMENTS.md). `rmt-sim` 5 098 → 5 123, up: a PHV holds bits under
    # a width layout each program fixes once, interned so that every
    # switch of one program shares it, and `reset` re-points a buffer
    # recycled from a program of the same counts; the switch lost its
    # buffered pump. The workspace 34 471 → 34 316.
    #
    # Configuration is an argument, not the environment (DESIGN.md §9–§11):
    # the pipe, switch, remote and flow knobs, their parsers and the
    # constructor twins that existed to work around them are deleted, and
    # the tests sweep pipes, switches and driver modes as arguments.
    # `mantis` 483 → 310 gets a ceiling where it landed: it is a facade
    # with one short and one full constructor per testbed shape, and it
    # reads no environment. `bench` keeps its ceiling: the count parser
    # moved from `mantis` into `figures`, whose `main` is now the
    # workspace's only reader of the environment, and `bench` still lands
    # below 3 793. The workspace 34 316 → 34 129.
    # The hop without a heap, a second PHV copy or a division (DESIGN.md
    # §14) paid for its additions — the sorted run, the wire-layout rule,
    # the move path, the port table — with the heap wrapper, the
    # circulating spare buffer, the structural-identity test and the
    # duplicate intrinsic setter it deleted: `netsim` 2 487 → 2 484,
    # `rmt-sim` 5 123 → 5 113, the workspace 34 129 → 34 127.
    # A pipe holds only what differs between pipes (DESIGN.md §9): each
    # table is stored once with a default per pipe, port state and queues
    # by global port, so the per-pipe copies, their fan-out loops, the
    # shared-handle counter, the table's `_shared` twins and the switch's
    # `_on` twins went. `rmt-sim` 5 113 → 4 920, the workspace
    # 34 127 → 33 934.
    # Each object a reaction touches has one owner (DESIGN.md §14, "Switch
    # components"): a live checkpoint token is recorded only in its
    # table's journal, three twins went, and `netsim`'s heartbeat source
    # became a UDP sender without counters. A crate-private traffic
    # manager owning the ports and queues was built and measured at about
    # 90 lines more than the queue code it would replace, so the queues
    # stay in `switch.rs` (ROADMAP item 4). `rmt-sim` 4 920 → 4 895,
    # `netsim` 2 484 → 2 458, the workspace 33 934 → 33 883. `switch.rs`
    # gets a file ceiling where it landed (1 298 → 1 273), in the form of
    # the agent's rule.
    # One entrance into a reaction's environment (DESIGN.md §16): the
    # seven by-name `ReactionEnv` methods, their seven by-id twins'
    # defaults and the context's seven forwards went, and five copies of
    # the array bounds rule became calls to one. `reaction-interp`
    # 2 368 → 2 343, `mantis-agent` 4 750 → 4 710, `bench` 3 779 → 3 772
    # (its ceiling lowered to where it landed), the workspace
    # 33 883 → 33 811.
    ceilings = {
        "bench": 3772,
        "mantis": 310,
        "mantis-agent": 4710,
        "mantis-telemetry": 1001,
        "netsim": 2458,
        "reaction-interp": 2343,
        "rmt-sim": 4895,
    }
    total_ceiling = 33811
    agent = crates["mantis-agent"]
    broken = []
    for path, n in agent.items():
        name = os.path.basename(path)
        ceiling = 600 if name == "agent.rs" else 800
        if os.path.dirname(path).endswith("src") and n > ceiling:
            broken.append(f"{path} has {n} non-test lines (ceiling {ceiling})")
    for path, n in crates["rmt-sim"].items():
        if os.path.basename(path) == "switch.rs" and n > 1273:
            broken.append(f"{path} has {n} non-test lines (ceiling 1273)")
    for crate, ceiling in ceilings.items():
        lines = sum(crates[crate].values())
        if lines > ceiling:
            broken.append(f"crates/{crate} has {lines} non-test lines (ceiling {ceiling})")
    if total > total_ceiling:
        broken.append(f"the workspace has {total} non-test lines (ceiling {total_ceiling})")
    for line in broken:
        print(line, file=sys.stderr)
    sys.exit(1 if broken else 0)


if __name__ == "__main__":
    main()
