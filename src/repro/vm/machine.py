"""The interpreter.

The machine is word-addressed: one instruction or data value per
address.  Registers and memory hold 32-bit unsigned values; signed
operations reinterpret as two's complement.  The timing model charges
one cycle per architectural instruction; runtime services (such as the
squash decompressor) add their own measured cost through
:meth:`Machine.charge`.

Services: a squashed image contains address ranges (decompressor entry
points) that trap into Python handlers registered via ``services``.
This models the paper's software decompressor, whose code occupies real
space in the image but whose execution we simulate (see DESIGN.md).

Block translation: :meth:`Machine.run` interprets one instruction per
step, and on the :data:`TRANSLATE_AFTER`-th entry at a pc it translates
the superblock starting there into one generated Python function: a
trace that follows direct ``br``/``bsr`` targets and, behind a guard,
the ``ret`` of a ``bsr`` it followed, and runs a branch back to its own
entry as a loop inside the function.  An entry is an arrival where a
trace can start: after a branch, jump, call, return, system op, service
or superblock exit.  A straight-line instruction (ALU, ``ldw``,
``stw``, ``lda``, ``ldah``) falls through into the next one in the step
body, counting nothing, unless a live translation starts there.  The
blocks a profile entered at least ``TRANSLATE_AFTER`` times may be
given to the machine (``hot_heads``); their counts start one short of
the threshold, so they translate on their first entry.

A superblock starts only when one whole pass fits the step and
watchdog budgets, starts another pass only when that fits too, and
stops before any load or store that would fault, so every fault,
budget trip, cycle count and block count comes out of the step body
exactly as in a run that translates nothing.  The step body is the
oracle the translated code is tested against
(``tests/test_vm_translate.py``; DESIGN.md §10).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro import settings as _settings
from repro.errors import WatchdogExpired
from repro.isa.encoding import WORD_MASK
from repro.isa.opcodes import AluOp, Op, SysOp
from repro.obs.trace import get_tracer
from repro.program.image import LoadedImage

_SIGN_BIT = 1 << 31
_U32 = WORD_MASK

#: Watchdog surcharge per runtime-service invocation: service handlers
#: execute host Python, not guest steps, so a decode-loop that
#: ping-pongs through the decompressor burns watchdog budget even while
#: its guest step count barely moves.
_SERVICE_WATCHDOG_COST = 64

#: A block is translated on its TRANSLATE_AFTER-th entry at one pc
#: holding one first word, so that the regions the runtime buffer holds
#: in turn earn their translations apart.  One ``compile()`` costs
#: about as much as interpreting a few hundred instructions, and a
#: linked trace is longer than a block: translating on the 16th entry
#: cost 9% more VM time on ``squash_run``'s programs than on the 32nd,
#: and the 48th and 64th cost 2-6% less.  Counting only arrivals by a
#: transfer, with profile-hot blocks seeded, the 32nd cost 7% more than
#: the 48th, and the 64th and 96th were no better.
TRANSLATE_AFTER = 48

#: Most instructions one superblock spans.  Compile time grows with the
#: length, and a pass that leaves by an early side exit never runs the
#: tail, so longer superblocks stop paying for themselves.
SUPERBLOCK_MAX = 48


def _env_watchdog() -> int:
    """The process-wide watchdog budget (``REPRO_VM_WATCHDOG``).

    0 or unset disables the guard; a malformed value is treated as
    unset (the guard must never turn a healthy run into a crash) —
    both rules live in :mod:`repro.settings` now.
    """
    return _settings.current().vm_watchdog


class MachineFault(Exception):
    """Base class for runtime faults."""

    def __init__(self, message: str, pc: int | None = None):
        if pc is not None:
            message = f"pc={pc:#x}: {message}"
        super().__init__(message)
        self.pc = pc


class IllegalInstructionFault(MachineFault):
    """Executed an illegal or undecodable instruction."""


class MemoryFault(MachineFault):
    """Out-of-range or forbidden memory access."""


class FuelExhausted(MachineFault):
    """The run exceeded its step budget."""


class _Deopt(Exception):
    """Raised by a translated block before a load or store that would
    fault: ``args`` are the instructions it completed and the pc of the
    one it did not run."""


#: A translation: the generated function (given the instructions it may
#: run, returns the next pc and the instructions it ran), its length in
#: instructions, its entry pc, and the words it was translated from as
#: (first address, words) runs of adjacent addresses.
_Block = tuple[
    Callable[[int], tuple[int, int]], int, int, tuple[tuple[int, list[int]], ...]
]

#: Marks in ``Machine._code``: an address a live translation outside
#: every filled range spans, and an address inside a filled range.
_COVERED, _FILLED = 1, 2


@dataclass
class RunResult:
    """Outcome of a completed run."""

    exit_code: int
    output: list[int]
    steps: int
    cycles: int
    block_counts: dict[int, int] = field(default_factory=dict)
    max_stack_depth: int = 0


def _signed(value: int) -> int:
    return value - (1 << 32) if value & _SIGN_BIT else value


# Pre-decoded instruction tuples: (op, ra, rb, rc, func, imm).
_DECODE_CACHE: dict[int, tuple[int, int, int, int, int, int]] = {}


def _predecode(word: int) -> tuple[int, int, int, int, int, int]:
    from repro.isa.encoding import decode

    cached = _DECODE_CACHE.get(word)
    if cached is None:
        instr = decode(word)
        cached = (
            int(instr.op),
            instr.ra,
            instr.rb,
            instr.rc,
            instr.func,
            instr.imm,
        )
        _DECODE_CACHE[word] = cached
    return cached


_OP_SPC = int(Op.SPC)
_OP_LDA, _OP_LDAH = int(Op.LDA), int(Op.LDAH)
_OP_LDW, _OP_STW = int(Op.LDW), int(Op.STW)
_OP_BR, _OP_BSR = int(Op.BR), int(Op.BSR)
_OP_JMP, _OP_JSR, _OP_RET = int(Op.JMP), int(Op.JSR), int(Op.RET)
_OP_OPR, _OP_OPI = int(Op.OPR), int(Op.OPI)
_SYS_READ, _SYS_WRITE = int(SysOp.READ), int(SysOp.WRITE)
#: System ops a block may contain; every other one ends it.
_SYS_IN_BLOCK = frozenset({int(SysOp.NOP), _SYS_READ, _SYS_WRITE})
#: Unconditional branches and jumps: each ends the superblock it is in.
_TRANSFERS = frozenset({_OP_BR, _OP_BSR, _OP_JMP, _OP_JSR, _OP_RET})
#: Straight-line instructions: each goes on at the next word, so no
#: trace starts after one unless a live translation starts there.
_STRAIGHT = frozenset({_OP_OPR, _OP_OPI, _OP_LDW, _OP_STW, _OP_LDA, _OP_LDAH})

#: Taken-conditions of the conditional branches over the register
#: ``{a}``, each the expression the step body evaluates.
_BRANCH_TAKEN = {
    int(Op.BEQ): "{a} == 0",
    int(Op.BNE): "{a} != 0",
    int(Op.BLT): "{a} & 2147483648",
    int(Op.BLE): "{a} == 0 or {a} & 2147483648",
    int(Op.BGT): "{a} != 0 and not {a} & 2147483648",
    int(Op.BGE): "not {a} & 2147483648",
    int(Op.BLBC): "not {a} & 1",
    int(Op.BLBS): "{a} & 1",
}


def _signed_src(value: str) -> str:
    """Source of :func:`_signed` applied to the expression *value*."""
    return f"({value} - 4294967296 if {value} & 2147483648 else {value})"


def _alu_src(func: int, a: str, b: str, imm: int | None) -> str:
    """Source of one ALU result, the step body's expression for *func*.

    *b* is the second operand's source; *imm* is its value when it is a
    literal, so shifts, signed compares and divisions fold it.
    """
    if imm is not None and func in (6, 7, 8):
        shift = str(imm & 31)
    else:
        shift = f"({b} & 31)"
    if func == 0:
        return f"({a} + {b}) & 4294967295"
    if func == 1:
        return f"({a} - {b}) & 4294967295"
    if func == 2:
        return f"({a} * {b}) & 4294967295"
    if func in (3, 4, 5):
        return f"{a} {'&|^'[func - 3]} {b}"
    if func == 6:
        return f"({a} << {shift}) & 4294967295"
    if func == 7:
        return f"{a} >> {shift}"
    if func == 8:
        return f"({_signed_src(a)} >> {shift}) & 4294967295"
    if func == 9:
        return f"1 if {a} == {b} else 0"
    if func in (10, 11):
        sb = str(_signed(imm)) if imm is not None else _signed_src(b)
        cmp = "<" if func == 10 else "<="
        return f"1 if {_signed_src(a)} {cmp} {sb} else 0"
    if func in (12, 13):
        return f"1 if {a} {'<' if func == 12 else '<='} {b} else 0"
    div = "//" if func == 14 else "%"
    if imm is not None:
        return f"{a} {div} {imm}" if imm else "0"
    return f"{a} {div} {b} if {b} else 0"


def _block_source(
    trace: list[tuple[int, tuple[int, int, int, int, int, int]]],
    heads: set[int],
    mem_len: int,
    heap_base: int,
    data_start: int,
    data_end: int,
) -> tuple[str, set[str]]:
    """Python source of one translated superblock, and the names it binds.

    The function ``_block(limit)`` runs *trace*, the (pc, decoded word)
    pairs in execution order from the entry pc, and returns
    ``(next_pc, instructions_run)``.  Consecutive pairs are adjacent
    words, or a direct ``br``/``bsr`` and its target, or a ``ret`` and
    the return address a ``bsr`` earlier in the trace set, behind a
    guard that leaves when the link register holds another value.  A
    taken conditional branch leaves it (a side exit); a branch back to
    the entry starts another pass of an in-function loop when a whole
    pass still fits the *limit* instructions it may run, and otherwise
    leaves at the entry.  Guest registers live in locals, loaded on
    entry and stored back in one ``finally``.  A pc in *heads* is
    counted where the step body counts it.  Each expression is the one
    the step body in :meth:`Machine.run` evaluates, so the two agree on
    every value, wrap and quirk.
    """
    entry = trace[0][0]
    size = len(trace)
    body: list[str] = []
    uses: set[str] = set()
    touched: set[int] = set()
    written: set[int] = set()
    loops = any(
        (op in _BRANCH_TAKEN or op == _OP_BR or op == _OP_BSR)
        and pc + 1 + imm == entry
        for pc, (op, _, _, _, _, imm) in trace
    )
    # Instructions of earlier passes, in a block that loops.
    done = "done + " if loops else ""

    def read(reg: int) -> str:
        touched.add(reg)
        return f"r{reg}"

    def write(reg: int, expr: str) -> None:
        body.append(f"r{reg} = {expr}")
        touched.add(reg)
        written.add(reg)
        if reg == 30:
            body.append("if r30 < floor[0]: floor[0] = r30")
            uses.add("floor")

    def leave(target: int | str, count: int) -> list[str]:
        """Leave after *count* instructions of this pass, or loop."""
        if loops and target == entry:
            return [
                f"done += {count}",
                f"if done + {size} > limit:",
                f"    return {entry}, done",
                "continue",
            ]
        return [f"return {target}, {done}{count}"]

    def address(rb: int, imm: int, index: int, pc: int, store: bool) -> None:
        """Compute ``addr`` and leave the block before a faulting access."""
        uses.update(("mem", "Deopt"))
        body.append(f"addr = ({read(rb)} + {imm}) & 4294967295")
        bad = f"addr >= {mem_len}"
        if store:
            bad += f" or (addr < {heap_base} and not {data_start} <= addr < {data_end})"
        body.append(f"if {bad}:")
        body.append(f"    raise Deopt({done}{index}, {pc})")

    for index, (pc, (op, ra, rb, rc, func, imm)) in enumerate(trace):
        linked = trace[index + 1][0] if index + 1 < size else None
        if op == _OP_LDW or op == _OP_STW:
            address(rb, imm, index, pc, op == _OP_STW)
        if pc in heads:
            # Counted once the instruction is sure to execute.
            uses.add("counts")
            body.append(f"counts[{pc}] = counts.get({pc}, 0) + 1")
        if op == _OP_OPR or op == _OP_OPI:
            if rc != 31:
                lit = imm if op == _OP_OPI else None
                b = str(imm) if lit is not None else read(rb)
                write(rc, _alu_src(func, read(ra), b, lit))
        elif op == _OP_LDW:
            if ra != 31:
                write(ra, "mem[addr]")
        elif op == _OP_STW:
            body.append(f"mem[addr] = {read(ra)}")
        elif op == _OP_LDA:
            if ra != 31:
                write(ra, f"({read(rb)} + {imm}) & 4294967295")
        elif op == _OP_LDAH:
            if ra != 31:
                write(ra, f"({read(rb)} + {imm << 16}) & 4294967295")
        elif op in _BRANCH_TAKEN:
            body.append(f"if {_BRANCH_TAKEN[op].format(a=read(ra))}:")
            body.extend(
                f"    {line}" for line in leave(pc + 1 + imm, index + 1)
            )
        elif op == _OP_BR or op == _OP_BSR:
            if ra != 31:
                write(ra, str(pc + 1))
            if linked is None:
                body.extend(leave(pc + 1 + imm, index + 1))
        elif op == _OP_JMP or op == _OP_JSR or op == _OP_RET:
            body.append(f"target = {read(rb)}")
            if ra != 31:
                write(ra, str(pc + 1))
            if linked is None:
                body.extend(leave("target", index + 1))
            else:
                # The ret guard: go on at the return address the trace
                # predicted, or leave for the one the register holds.
                body.append(f"if target != {linked}:")
                body.extend(
                    f"    {line}" for line in leave("target", index + 1)
                )
        elif op == _OP_SPC and imm == _SYS_READ:
            uses.add("m")
            body += [
                "if m.in_pos < len(m.input):",
                "    r0 = m.input[m.in_pos] & 4294967295",
                "    r1 = 1",
                "    m.in_pos += 1",
                "else:",
                "    r1 = 0",
            ]
            touched.update((0, 1))
            written.update((0, 1))
        elif op == _OP_SPC and imm == _SYS_WRITE:
            uses.add("out")
            body.append(f"out.append({read(16)})")
    last_pc, (last_op, *_) = trace[-1]
    if last_op not in _TRANSFERS:
        body.extend(leave(last_pc + 1, size))
    # Every register is loaded on entry, so a side exit taken before
    # a write stores back the value the register already held.
    head = [f"r{reg} = regs[{reg}]" for reg in sorted(touched)]
    indent = "    "
    if loops:
        head.append("done = 0")
        body = ["while True:"] + [indent + line for line in body]
    if written:
        body = (
            ["try:"]
            + [indent + line for line in body]
            + ["finally:"]
            + [f"{indent}regs[{reg}] = r{reg}" for reg in sorted(written)]
        )
    if touched:
        uses.add("regs")
    params = "".join(f", {name}={name}" for name in sorted(uses))
    source = f"def _block(limit{params}):\n" + "".join(
        f"{indent}{line}\n" for line in head + body
    )
    return source, uses


class Machine:
    """An interpreter instance bound to one loaded image.

    Parameters
    ----------
    image:
        The program image to run.
    input_words:
        The input stream consumed by the READ syscall.
    heap_words / stack_words:
        Sizes of the zero-initialised heap (above the image) and the
        stack (at the top of memory; ``sp`` starts at the memory limit).
    services:
        Map from trap address to handler.  When the PC reaches a trap
        address the handler runs instead of a fetch; it must update the
        PC itself.  Translated blocks stop before trap addresses, so
        the map must not change once the machine runs, and handlers
        change memory only through :meth:`write_word` /
        :meth:`write_words`, which retire stale translations (a keyed
        :meth:`write_words` sets a filled range's translations aside
        and brings back those of an earlier fill with the same key).
    count_blocks:
        When true, count executions of each address in
        ``image.block_heads`` (the basic-block profile).
    watchdog:
        Hang-guard budget over the machine's lifetime, in steps plus a
        fixed surcharge per runtime-service invocation; exceeding it
        raises :class:`~repro.errors.WatchdogExpired`.  ``None`` reads
        ``REPRO_VM_WATCHDOG`` from the environment; 0 disables the
        guard.  The watchdog never touches the cycle model — a guarded
        run is cycle-identical to an unguarded one.
    hot_heads:
        Entries already seen, by pc: a profile's count of each block it
        found hot.  The entry count of a pc, keyed by the word there
        now, starts at that count, at most ``TRANSLATE_AFTER`` - 1, so
        a hot block translates on its first entry.  Only host time
        depends on it.
    """

    def __init__(
        self,
        image: LoadedImage,
        input_words: list[int] | tuple[int, ...] = (),
        heap_words: int = 8192,
        stack_words: int = 8192,
        services: dict[int, Callable[["Machine"], None]] | None = None,
        count_blocks: bool = False,
        watchdog: int | None = None,
        hot_heads: Mapping[int, int] | None = None,
    ):
        self.image = image
        mem_size = image.end + heap_words + stack_words
        self.mem: list[int] = [0] * mem_size
        self.mem[image.base : image.end] = image.memory
        self.regs: list[int] = [0] * 32
        self.regs[30] = mem_size  # sp at the top; pushes pre-decrement
        self.pc = image.entry_pc
        self.heap_base = image.end
        self.input = list(input_words)
        self.in_pos = 0
        self.output: list[int] = []
        self.steps = 0
        self.cycles = 0
        self.exit_code: int | None = None
        self.services = dict(services or {})
        self.watchdog = _env_watchdog() if watchdog is None else max(0, watchdog)
        self._watchdog_surcharge = 0
        self.count_blocks = count_blocks
        self._tracer = get_tracer()
        self.block_counts: dict[int, int] = {}
        self._block_heads = set(image.block_heads) if count_blocks else set()
        # Guest stores may not touch code segments; services may.  The
        # data segment may sit between code segments (squashed images
        # place the compressed area last), so track its range explicitly.
        if image.has_segment("data"):
            data_seg = image.segment("data")
            self._data_start, self._data_end = data_seg.start, data_seg.end
        else:
            self._data_start = self._data_end = 0
        # Lowest sp seen, in a cell that translated blocks update too.
        self._sp_floor = [self.regs[30]]
        # Block translation state (see _translate).  _at holds the live
        # translation at each entry pc.  _code marks each address
        # _FILLED inside a range a keyed fill wrote and no other store
        # touched since (_fills: base -> (key, words)), or _COVERED when
        # a live translation outside those ranges spans it (_owners:
        # address -> [(translation, word)]).  _stash keeps, by key, the
        # translations of a filled range another fill replaced; _kept
        # and _heat, both by (entry pc, first word), keep translations
        # dropped by a store for revalidation, and step-mode entry
        # counts.
        self._at: list[_Block | None] = [None] * mem_size
        self._code = bytearray(mem_size)
        self._owners: dict[int, list[tuple[_Block, int]]] = {}
        self._fills: dict[int, tuple[object, list[int]]] = {}
        self._stash: dict[object, tuple[int, list[int], list]] = {}
        self._kept: dict[tuple[int, int], list[_Block]] = {}
        start = TRANSLATE_AFTER - 1
        self._heat: dict[tuple[int, int], int] = {
            (pc, self.mem[pc]): min(count, start)
            for pc, count in (hot_heads or {}).items()
            if 0 <= pc < mem_size and pc not in self.services
        }

    # -- service/runtime helpers -------------------------------------------

    def charge(self, cycles: int) -> None:
        """Add *cycles* of modelled runtime-service cost."""
        self.cycles += cycles

    def write_word(self, addr: int, value: int) -> None:
        """Privileged store (used by runtime services)."""
        mem = self.mem
        if 0 <= addr < len(mem) and not self._code[addr]:
            mem[addr] = value & _U32
        else:
            self.write_words(addr, (value,))

    def write_words(
        self, base: int, words: Sequence[int], key: object = None
    ) -> None:
        """Privileged store of *words* at *base*, *base* + 1, ...

        Faults at the first address outside memory after storing the
        words before it, as one :meth:`write_word` per word would.  This
        is the one place memory changes under translated code: a
        translation whose words the store changes stops running.

        With a *key* the store is a keyed fill, and the caller promises
        that every keyed fill with that key at *base* writes the same
        words (the runtime passes a region's index with its expanded
        body).  The translations made inside the range since the last
        fill at *base* are set aside under that fill's key, and those
        set aside under *key* run again, with no walk over translations
        and no compare of their words: one compare of the whole word
        list against the stash's checks the promise.  Any other store
        into a filled range drops its key, and its translations are
        checked word by word from then on.
        """
        mem = self.mem
        if key is not None and 0 <= base < base + len(words) <= len(mem):
            self._refill(base, base + len(words), words, key)
            return
        room = len(mem) - base if base >= 0 else 0
        count = min(len(words), max(room, 0))
        if count:
            end = base + count
            mem[base:end] = [word & _U32 for word in words[:count]]
            code = self._code
            if code.find(_FILLED, base, end) >= 0:
                self._unfill(base, end)
            if code.find(_COVERED, base, end) >= 0:
                self._invalidate(base, end)
        if count < len(words):
            raise MemoryFault(f"service store to {base + count:#x}", self.pc)

    def read_word(self, addr: int) -> int:
        """Privileged load (used by runtime services)."""
        if not 0 <= addr < len(self.mem):
            raise MemoryFault(f"service load from {addr:#x}", self.pc)
        return self.mem[addr]

    # -- block translation ---------------------------------------------------

    def _guest_writable(self, addr: int) -> bool:
        """Whether a guest store can reach *addr*: STW into the heap or
        the data segment, or SETJMP's four words from a buffer there."""
        if addr >= self.heap_base:
            return True
        start, end = self._data_start, self._data_end
        return start < end and start <= addr < end + 3

    def _translate(self, entry: int) -> bool:
        """Translate the superblock at *entry* and make it live; False
        when no instruction there can be translated.

        The superblock is a trace of at most :data:`SUPERBLOCK_MAX`
        instructions.  It runs from *entry* through conditional
        branches (each a side exit), follows each direct ``br``/``bsr``
        to its target, and goes on past a ``ret`` to the return address
        of the innermost ``bsr`` it followed that links the register the
        ``ret`` jumps through (the generated code guards that value).
        It ends at ``jmp``/``jsr``, at a ``ret`` it cannot predict, at a
        branch to an address it already holds (to *entry*, the
        in-function loop), and before a trap address, an address a
        guest store can reach, HALT, EXIT, SETJMP, LONGJMP, a bad ALU
        func, or a word that does not decode; those, like everything
        before the first translation, run in the step body.  Guest
        stores therefore never touch translated code, and runtime
        services change it only through :meth:`write_words`.  A trace
        that starts inside a filled range stays inside it, and one
        that starts outside every filled range stays outside them all.
        """
        mem = self.mem
        code = self._code
        filled = code[entry] == _FILLED
        lo, hi = self._filled_range(entry) if filled else (0, len(mem))
        trace: list[tuple[int, tuple[int, int, int, int, int, int]]] = []
        seen: set[int] = set()
        #: (link register, return address) of each bsr followed.
        calls: list[tuple[int, int]] = []
        addr = entry
        while len(trace) < SUPERBLOCK_MAX:
            if (
                not lo <= addr < hi
                or addr in seen
                or (not filled and code[addr] == _FILLED)
                or addr in self.services
                or self._guest_writable(addr)
            ):
                break
            try:
                decoded = _predecode(mem[addr])
            except Exception:
                break
            op, ra, rb, _, func, imm = decoded
            if (op == _OP_SPC and imm not in _SYS_IN_BLOCK) or (
                (op == _OP_OPR or op == _OP_OPI) and func > 15
            ):
                break
            trace.append((addr, decoded))
            seen.add(addr)
            if op == _OP_BR or op == _OP_BSR:
                if ra != 31:
                    calls.append((ra, addr + 1))
                addr += 1 + imm
            elif op == _OP_RET and calls and calls[-1][0] == rb:
                addr = calls.pop()[1]
            elif op in _TRANSFERS:
                break
            else:
                addr += 1
        if not trace:
            return False
        source, uses = _block_source(
            trace, self._block_heads, len(mem),
            self.heap_base, self._data_start, self._data_end,
        )
        # No reference cycles: the function is popped out of its own
        # globals, and it reaches the machine through a weak proxy, so a
        # dropped machine frees its memory at once instead of at the
        # next garbage collection.
        bound = {
            "regs": self.regs, "mem": mem, "floor": self._sp_floor,
            "counts": self.block_counts, "m": weakref.proxy(self),
            "out": self.output, "Deopt": _Deopt,
        }
        namespace = {name: bound[name] for name in uses}
        exec(compile(source, f"<block {entry:#x}>", "exec"), namespace)
        # Entries counted at the pcs it spans came from stepping through
        # this code; from now on an entry there comes from elsewhere.
        runs: list[tuple[int, list[int]]] = []
        for pc, _ in trace:
            if pc != entry:
                self._heat.pop((pc, mem[pc]), None)
            if runs and runs[-1][0] + len(runs[-1][1]) == pc:
                runs[-1][1].append(mem[pc])
            else:
                runs.append((pc, [mem[pc]]))
        return self._install(
            (namespace.pop("_block"), len(trace), entry, tuple(runs))
        )

    def _filled_range(self, addr: int) -> tuple[int, int]:
        """Bounds of the filled range holding *addr*."""
        for base, (_, words) in self._fills.items():
            if base <= addr < base + len(words):
                return base, base + len(words)
        raise AssertionError(f"{addr:#x} is marked filled but no fill holds it")

    def _install(self, block: _Block) -> bool:
        """Make *block* live; False when it spans a filled range's edge."""
        entry, runs = block[2], block[3]
        code = self._code
        if code[entry] == _FILLED:
            lo, hi = self._filled_range(entry)
            if any(start < lo or start + len(words) > hi for start, words in runs):
                return False
        elif any(
            code.find(_FILLED, start, start + len(words)) >= 0
            for start, words in runs
        ):
            return False
        else:
            self._cover(block)
        self._at[entry] = block
        return True

    def _cover(self, block: _Block) -> None:
        """Record that *block* spans its words, outside filled ranges."""
        owners = self._owners
        code = self._code
        for start, words in block[3]:
            for addr, word in enumerate(words, start):
                owners.setdefault(addr, []).append((block, word))
                code[addr] = _COVERED

    def _retire(self, block: _Block) -> None:
        """Stop running *block*, a translation outside the filled
        ranges; keep it aside for :meth:`_revalidate`, indexed by its
        entry pc and first word."""
        entry, runs = block[2], block[3]
        if self._at[entry] is block:
            self._at[entry] = None
        owners = self._owners
        code = self._code
        for start, words in runs:
            for addr in range(start, start + len(words)):
                holders = [held for held in owners[addr] if held[0] is not block]
                if holders:
                    owners[addr] = holders
                else:
                    del owners[addr]
                    code[addr] = 0
        self._kept.setdefault((entry, runs[0][1][0]), []).append(block)

    def _invalidate(self, base: int, end: int, every: bool = False) -> None:
        """Retire every translation outside the filled ranges that spans
        a word in [*base*, *end*) the store changed, or, with *every*,
        that spans any word there."""
        mem = self.mem
        code = self._code
        owners = self._owners
        addr = code.find(_COVERED, base, end)
        while addr >= 0:
            for block, word in list(owners[addr]):
                if every or mem[addr] != word:
                    self._retire(block)
            addr = code.find(_COVERED, addr + 1, end)

    def _unfill(self, base: int, end: int) -> None:
        """Drop the key of every filled range [*base*, *end*) overlaps:
        its translations are checked word by word from now on."""
        for start, (_, words) in list(self._fills.items()):
            stop = start + len(words)
            if start < end and base < stop:
                del self._fills[start]
                self._code[start:stop] = bytes(stop - start)
                for block in self._at[start:stop]:
                    if block is not None:
                        self._cover(block)

    def _refill(self, base: int, end: int, words: Sequence[int], key: object) -> None:
        """The keyed fill of :meth:`write_words`, which fits in memory."""
        at = self._at
        code = self._code
        # The outgoing fill at base marked [base, stop) filled.
        stop = base
        old = self._fills.pop(base, None)
        if old is not None:
            old_key, old_words = old
            stop = base + len(old_words)
            self._stash[old_key] = (base, old_words, at[base:stop])
        if end > stop:
            # Past it, another filled range drops its key, and a
            # translation outside the filled ranges may not span one.
            if code.find(_FILLED, stop, end) >= 0:
                self._unfill(stop, end)
            if code.find(_COVERED, stop, end) >= 0:
                self._invalidate(stop, end, every=True)
            code[stop:end] = bytes((_FILLED,)) * (end - stop)
        elif stop > end:
            code[end:stop] = bytes(stop - end)
        stashed = self._stash.pop(key, None)
        if stashed is not None and stashed[0] == base and stashed[1] == words:
            # The words of the fill the stash was taken from, so in
            # range, and its translations hold again.
            words = stashed[1]
            at[base:end] = stashed[2]
            if stop > end:
                at[end:stop] = [None] * (stop - end)
        else:
            words = [word & _U32 for word in words]
            if stop > base:
                at[base:stop] = [None] * (stop - base)
        self.mem[base:end] = words
        self._fills[base] = (key, words)

    def _revalidate(self, key: tuple[int, int]) -> bool:
        """Reinstate a translation kept under *key* (entry pc, the word
        there now) whose words are all in memory again: code a store
        rewrote and a later one restored reuses its translations
        without compiling anew."""
        kept = self._kept[key]
        mem = self.mem
        for index, block in enumerate(kept):
            if all(
                mem[start : start + len(words)] == words
                for start, words in block[3]
            ):
                del kept[index]
                if not kept:
                    del self._kept[key]
                return self._install(block)
        return False

    # -- execution -----------------------------------------------------------

    def run(self, max_steps: int = 100_000_000) -> RunResult:
        """Run until HALT/EXIT; return the result.

        Raises a :class:`MachineFault` subclass on errors, including
        :class:`FuelExhausted` after *max_steps* instructions.

        Each loop iteration runs one instruction in the step body, or
        one service, then chains translated superblocks while the next
        pc has one whose whole pass fits the budgets; a superblock is
        given the instructions left and reports those it ran.  A
        straight-line instruction goes on to the next step at once
        when no translation starts at the next pc, so entries are
        counted only after branches, jumps, system ops, services and
        superblock exits.  The first instruction of a run takes the
        step body.  After a service, a direct ``br`` at the pc it left
        (the runtime buffer's entry jump, or the ``br`` after a
        CreateStub call) runs at once, and chaining goes on from its
        target; a service that left sp below the lowest seen hands the
        next instruction to the step body, whose per-step ``min_sp``
        check then sees it.
        """
        mem = self.mem
        regs = self.regs
        services = self.services
        heads = self._block_heads
        counts = self.block_counts
        at = self._at
        kept = self._kept
        heat = self._heat
        straight = _STRAIGHT
        translate_after = TRANSLATE_AFTER
        mem_len = len(mem)
        heap_base = self.heap_base
        data_start = self._data_start
        data_end = self._data_end
        pc = self.pc
        steps = self.steps
        cycles = self.cycles
        sp_floor = self._sp_floor
        min_sp = sp_floor[0]
        max_steps_total = steps + max_steps
        svc_charge = self._watchdog_surcharge
        # One comparison serves both budgets: trip at whichever limit
        # comes first, then diagnose which one it was.  A step runs
        # while steps < budget, a block of n while steps + n <= budget.
        wd_limit = self.watchdog if self.watchdog else (1 << 62)
        budget = min(max_steps_total, wd_limit - svc_charge)

        OP_SPC = int(Op.SPC)
        OP_LDA, OP_LDAH = int(Op.LDA), int(Op.LDAH)
        OP_LDW, OP_STW = int(Op.LDW), int(Op.STW)
        OP_BR, OP_BSR = int(Op.BR), int(Op.BSR)
        OP_BEQ, OP_BNE = int(Op.BEQ), int(Op.BNE)
        OP_BLT, OP_BLE = int(Op.BLT), int(Op.BLE)
        OP_BGT, OP_BGE = int(Op.BGT), int(Op.BGE)
        OP_BLBC, OP_BLBS = int(Op.BLBC), int(Op.BLBS)
        OP_JMP, OP_JSR, OP_RET = int(Op.JMP), int(Op.JSR), int(Op.RET)
        OP_OPR, OP_OPI = int(Op.OPR), int(Op.OPI)

        tracer = self._tracer
        if tracer.enabled:
            # Runtime-category events are stamped with modelled cycles
            # (never wall time), keeping the stream deterministic.
            tracer.emit(
                "vm.run", "runtime", phase="B", ts=cycles,
                entry_pc=pc, steps=steps,
            )
        try:
            while True:
                if services and (handler := services.get(pc)) is not None:
                    svc_charge += _SERVICE_WATCHDOG_COST
                    budget = min(max_steps_total, wd_limit - svc_charge)
                    if steps + svc_charge >= wd_limit:
                        raise WatchdogExpired(
                            f"watchdog budget {self.watchdog} exhausted "
                            f"in runtime services at pc={pc:#x}"
                        )
                    self.pc = pc
                    self.steps = steps
                    self.cycles = cycles
                    handler(self)
                    pc = self.pc
                    cycles = self.cycles
                    if self.exit_code is not None:
                        break
                    if regs[30] < min_sp:
                        continue
                    # The step body's work for a br to a known target.
                    if (
                        0 <= pc < mem_len
                        and steps < budget
                        and pc not in heads
                        and pc not in services
                    ):
                        decoded = _DECODE_CACHE.get(mem[pc])
                        if (
                            decoded is not None
                            and decoded[0] == OP_BR
                            and decoded[1] == 31
                        ):
                            steps += 1
                            cycles += 1
                            pc += 1 + decoded[5]
                else:
                    if steps >= budget:
                        if steps >= max_steps_total:
                            raise FuelExhausted("step budget exceeded", pc)
                        raise WatchdogExpired(
                            f"watchdog budget {self.watchdog} exhausted "
                            f"at pc={pc:#x} after {steps} steps"
                        )
                    # Counted only once the budget lets it run, so a run
                    # stopped here and resumed counts the head once.
                    if heads and pc in heads:
                        counts[pc] = counts.get(pc, 0) + 1
                    if not 0 <= pc < mem_len:
                        raise MemoryFault("pc outside memory", pc)
                    word = mem[pc]
                    decoded = _DECODE_CACHE.get(word)
                    if decoded is None:
                        try:
                            decoded = _predecode(word)
                        except Exception as exc:
                            raise IllegalInstructionFault(str(exc), pc) from exc
                    op, ra, rb, rc, func, imm = decoded
                    steps += 1
                    cycles += 1

                    if op == OP_OPR or op == OP_OPI:
                        a = regs[ra]
                        b = imm if op == OP_OPI else regs[rb]
                        if func == 0:
                            value = (a + b) & _U32
                        elif func == 1:
                            value = (a - b) & _U32
                        elif func == 2:
                            value = (a * b) & _U32
                        elif func == 3:
                            value = a & b
                        elif func == 4:
                            value = a | b
                        elif func == 5:
                            value = a ^ b
                        elif func == 6:
                            value = (a << (b & 31)) & _U32
                        elif func == 7:
                            value = a >> (b & 31)
                        elif func == 8:
                            value = (_signed(a) >> (b & 31)) & _U32
                        elif func == 9:
                            value = 1 if a == b else 0
                        elif func == 10:
                            value = 1 if _signed(a) < _signed(b) else 0
                        elif func == 11:
                            value = 1 if _signed(a) <= _signed(b) else 0
                        elif func == 12:
                            value = 1 if a < b else 0
                        elif func == 13:
                            value = 1 if a <= b else 0
                        elif func == 14:
                            value = a // b if b else 0
                        elif func == 15:
                            value = a % b if b else 0
                        else:
                            raise IllegalInstructionFault(
                                f"bad ALU func {func}", pc
                            )
                        if rc != 31:
                            regs[rc] = value
                        pc += 1
                    elif op == OP_LDW:
                        addr = (regs[rb] + imm) & _U32
                        if addr >= mem_len:
                            raise MemoryFault(f"load from {addr:#x}", pc)
                        if ra != 31:
                            regs[ra] = mem[addr]
                        pc += 1
                    elif op == OP_STW:
                        addr = (regs[rb] + imm) & _U32
                        if addr >= mem_len or (
                            addr < heap_base
                            and not data_start <= addr < data_end
                        ):
                            raise MemoryFault(f"store to {addr:#x}", pc)
                        mem[addr] = regs[ra]
                        pc += 1
                    elif op == OP_LDA:
                        if ra != 31:
                            regs[ra] = (regs[rb] + imm) & _U32
                            if ra == 30 and regs[30] < min_sp:
                                min_sp = regs[30]
                        pc += 1
                    elif op == OP_LDAH:
                        if ra != 31:
                            regs[ra] = (regs[rb] + (imm << 16)) & _U32
                        pc += 1
                    elif OP_BEQ <= op <= OP_BLBS:
                        a = regs[ra]
                        if op == OP_BEQ:
                            taken = a == 0
                        elif op == OP_BNE:
                            taken = a != 0
                        elif op == OP_BLT:
                            taken = bool(a & _SIGN_BIT)
                        elif op == OP_BLE:
                            taken = a == 0 or bool(a & _SIGN_BIT)
                        elif op == OP_BGT:
                            taken = a != 0 and not a & _SIGN_BIT
                        elif op == OP_BGE:
                            taken = not a & _SIGN_BIT
                        elif op == OP_BLBC:
                            taken = not a & 1
                        else:
                            taken = bool(a & 1)
                        pc = pc + 1 + imm if taken else pc + 1
                    elif op == OP_BR or op == OP_BSR:
                        if ra != 31:
                            regs[ra] = pc + 1
                        pc = pc + 1 + imm
                    elif op == OP_JMP or op == OP_JSR or op == OP_RET:
                        target = regs[rb]
                        if ra != 31:
                            regs[ra] = pc + 1
                        pc = target
                    elif op == OP_SPC:
                        if imm == 0:  # NOP
                            pc += 1
                        elif imm == 1:  # HALT
                            self.exit_code = 0
                            break
                        elif imm == 2:  # READ
                            if self.in_pos < len(self.input):
                                regs[0] = self.input[self.in_pos] & _U32
                                regs[1] = 1
                                self.in_pos += 1
                            else:
                                regs[1] = 0
                            pc += 1
                        elif imm == 3:  # WRITE
                            self.output.append(regs[16])
                            pc += 1
                        elif imm == 4:  # EXIT
                            self.exit_code = regs[16]
                            break
                        elif imm == 5:  # SETJMP
                            buf = regs[16]
                            if buf + 4 > mem_len or (
                                buf < heap_base
                                and not data_start <= buf < data_end
                            ):
                                raise MemoryFault(f"setjmp buf {buf:#x}", pc)
                            mem[buf] = pc + 1
                            mem[buf + 1] = regs[30]
                            mem[buf + 2] = regs[15]
                            mem[buf + 3] = regs[26]
                            regs[0] = 0
                            pc += 1
                        elif imm == 6:  # LONGJMP
                            buf = regs[16]
                            if buf + 4 > mem_len:
                                raise MemoryFault(f"longjmp buf {buf:#x}", pc)
                            value = regs[17]
                            pc = mem[buf]
                            regs[30] = mem[buf + 1]
                            regs[15] = mem[buf + 2]
                            regs[26] = mem[buf + 3]
                            regs[0] = value if value else 1
                        else:
                            raise IllegalInstructionFault(
                                f"bad system op {imm}", pc
                            )
                    else:
                        raise IllegalInstructionFault(
                            f"sentinel or illegal opcode {op:#x} executed", pc
                        )
                    if regs[30] < min_sp:
                        min_sp = regs[30]
                    if op in straight and (pc >= mem_len or at[pc] is None):
                        # Control fell through, and only a transfer or
                        # a service counts an entry.
                        continue
                while 0 <= pc < mem_len:
                    block = at[pc]
                    if block is None:
                        # A trap address never translates: leave for the
                        # service dispatch without counting the entry.
                        if pc in services:
                            break
                        key = (pc, mem[pc])
                        if key in kept and self._revalidate(key):
                            continue
                        entries = heat.get(key, 0) + 1
                        if entries < translate_after:
                            heat[key] = entries
                            break
                        heat[key] = 0
                        if not self._translate(pc):
                            break
                        continue
                    if steps + block[1] > budget:
                        break
                    try:
                        pc, done = block[0](budget - steps)
                    except _Deopt as stop:
                        # The step body raises the fault.
                        done, pc = stop.args
                        steps += done
                        cycles += done
                        break
                    steps += done
                    cycles += done
        finally:
            self.pc = pc
            self.steps = steps
            self.cycles = cycles
            if min_sp < sp_floor[0]:
                sp_floor[0] = min_sp
            self._watchdog_surcharge = svc_charge
            if tracer.enabled:
                tracer.emit(
                    "vm.run", "runtime", phase="E", ts=cycles,
                    steps=steps, cycles=cycles,
                    exit_code=self.exit_code,
                )

        assert self.exit_code is not None
        return RunResult(
            exit_code=self.exit_code,
            output=list(self.output),
            steps=self.steps,
            cycles=self.cycles,
            block_counts=dict(self.block_counts),
            max_stack_depth=len(self.mem) - self._sp_floor[0],
        )
