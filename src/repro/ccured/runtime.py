"""The CCured runtime library, ported to the motes.

CCured's stock runtime is several thousand lines of desktop C: check
implementations, fat-pointer helpers, checked wrappers for libc functions, a
garbage collector, and error reporting that assumes files and signals.
Section 2.3 of the paper describes porting it to the Mica2/TelosB: the OS
and x86 dependencies are removed by hand, garbage collection is compiled
out, and the improved dead-code elimination strips whatever the application
does not use — shrinking the footprint from 1.6 KB RAM / 33 KB ROM to
2 bytes of RAM / 314 bytes of ROM.

``build_runtime`` generates either library as CMinor source:

* ``RuntimeMode.FULL`` — the naive port: every helper and table is present
  and marked as linked-in (``spontaneous``), so no optimizer may drop it.
* ``RuntimeMode.TRIMMED`` — the embedded-adapted runtime: only the check
  helpers, the failure handler, and a two-byte failure counter; everything
  is eligible for dead-code elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.cminor import ast_nodes as ast
from repro.cminor.clone import clone_function, clone_global
from repro.cminor.parser import parse_program
from repro.cminor.program import Program
from repro.ccured.config import CCuredConfig, MessageStrategy, RuntimeMode

#: Name of the translation unit the runtime is parsed as.
RUNTIME_UNIT = "__ccured_runtime"


@dataclass
class RuntimeLibrary:
    """The generated runtime library, before it is linked into a program."""

    mode: RuntimeMode
    strategy: MessageStrategy
    functions: list[ast.FunctionDef] = field(default_factory=list)
    globals: list[ast.GlobalVar] = field(default_factory=list)

    def add_to_program(self, program: Program) -> None:
        """Link the runtime into ``program`` (replacing earlier versions)."""
        for var in self.globals:
            program.add_global(var, replace=True)
        for func in self.functions:
            program.add_function(func, replace=True)


def _message_param(strategy: MessageStrategy) -> tuple[str, str]:
    """The (type, reporting call) used for the failure-message parameter."""
    if strategy is MessageStrategy.FLID:
        return "uint16_t", "__error_report_id(msg);"
    return "char*", "__error_report(msg);"


def _check_helpers_source(strategy: MessageStrategy, full: bool) -> str:
    """CMinor source for the failure handler and the check helpers."""
    msg_type, report_call = _message_param(strategy)
    alignment_check = ""
    if full:
        alignment_check = """
  if (!__align_ok(p, 4)) {
    __ccured_fail(msg);
  }"""
    return f"""
volatile uint16_t __ccured_fail_count = 0;

void __ccured_fail({msg_type} msg) {{
  __ccured_fail_count = __ccured_fail_count + 1;
  {report_call}
  __halt(1);
}}

__inline void __ccured_check_null(void* p, {msg_type} msg) {{
  if (p == NULL) {{
    __ccured_fail(msg);
  }}
}}

__inline void __ccured_check_ptr(void* p, uint16_t size, {msg_type} msg) {{
  if (!__bounds_ok(p, size)) {{
    __ccured_fail(msg);
  }}
}}

__inline void __ccured_check_wild(void* p, uint16_t size, {msg_type} msg) {{
  if (p == NULL) {{
    __ccured_fail(msg);
  }}
  if (!__bounds_ok(p, size)) {{
    __ccured_fail(msg);
  }}{alignment_check}
}}
"""


#: Extra library code present only in the naive (FULL) port: checked libc
#: wrappers, fat-pointer helpers, the garbage collector, and error logging
#: with its buffers and format strings.  Everything here is what Section 2.3
#: removes or lets dead-code elimination strip.
_FULL_RUNTIME_EXTRAS = """
uint8_t __ccured_gc_heap[1024];
uint16_t __ccured_gc_free = 0;
uint16_t __ccured_gc_allocations = 0;
uint16_t __ccured_gc_collections = 0;
char __ccured_error_buffer[128];
uint8_t __ccured_error_length = 0;
uint16_t __ccured_wrapper_calls = 0;
uint8_t __ccured_log_open = 0;
char* __ccured_version = "CCured runtime 1.3.4 (desktop port)";
char* __ccured_fmt_null = "Null pointer dereference at %s";
char* __ccured_fmt_bounds = "Pointer out of bounds at %s";
char* __ccured_fmt_wild = "Wild pointer access at %s";
char* __ccured_fmt_align = "Misaligned pointer access at %s";
char* __ccured_fmt_stack = "Stack pointer escape at %s";
char* __ccured_fmt_seq = "Sequence pointer underflow at %s";
char* __ccured_fmt_rtti = "RTTI cast failure at %s";
char* __ccured_fmt_free = "Invalid free at %s";

__spontaneous void __ccured_gc_init(void) {
  uint16_t i;
  for (i = 0; i < 1024; i++) {
    __ccured_gc_heap[i] = 0;
  }
  __ccured_gc_free = 0;
}

__spontaneous void* __ccured_gc_malloc(uint16_t size) {
  uint16_t start;
  if (size == 0) {
    return NULL;
  }
  if (__ccured_gc_free + size > 1024) {
    __ccured_gc_collect();
    if (__ccured_gc_free + size > 1024) {
      return NULL;
    }
  }
  start = __ccured_gc_free;
  __ccured_gc_free = __ccured_gc_free + size;
  __ccured_gc_allocations = __ccured_gc_allocations + 1;
  return &__ccured_gc_heap[start];
}

__spontaneous void __ccured_gc_collect(void) {
  uint16_t i;
  uint16_t live;
  live = 0;
  for (i = 0; i < 1024; i++) {
    if (__ccured_gc_heap[i] != 0) {
      live = live + 1;
    }
  }
  if (live == 0) {
    __ccured_gc_free = 0;
  }
  __ccured_gc_collections = __ccured_gc_collections + 1;
}

__spontaneous void __ccured_memcpy(uint8_t* dst, uint8_t* src, uint16_t n) {
  uint16_t i;
  __ccured_wrapper_calls = __ccured_wrapper_calls + 1;
  for (i = 0; i < n; i++) {
    dst[i] = src[i];
  }
}

__spontaneous void __ccured_memset(uint8_t* dst, uint8_t value, uint16_t n) {
  uint16_t i;
  __ccured_wrapper_calls = __ccured_wrapper_calls + 1;
  for (i = 0; i < n; i++) {
    dst[i] = value;
  }
}

__spontaneous uint16_t __ccured_strlen(char* s) {
  uint16_t n = 0;
  __ccured_wrapper_calls = __ccured_wrapper_calls + 1;
  while (s[n] != 0) {
    n = n + 1;
  }
  return n;
}

__spontaneous void __ccured_strcpy(char* dst, char* src) {
  uint16_t i = 0;
  __ccured_wrapper_calls = __ccured_wrapper_calls + 1;
  while (src[i] != 0) {
    dst[i] = src[i];
    i = i + 1;
  }
  dst[i] = 0;
}

__spontaneous int16_t __ccured_strcmp(char* a, char* b) {
  uint16_t i = 0;
  while (a[i] != 0 && b[i] != 0) {
    if (a[i] != b[i]) {
      return (int16_t)a[i] - (int16_t)b[i];
    }
    i = i + 1;
  }
  return (int16_t)a[i] - (int16_t)b[i];
}

__spontaneous void __ccured_format_dec(uint16_t value, char* buffer) {
  uint8_t digits[5];
  uint8_t count = 0;
  uint8_t i;
  if (value == 0) {
    buffer[0] = 48;
    buffer[1] = 0;
    return;
  }
  while (value > 0 && count < 5) {
    digits[count] = (uint8_t)(value % 10);
    value = value / 10;
    count = count + 1;
  }
  for (i = 0; i < count; i++) {
    buffer[i] = (char)(48 + digits[count - 1 - i]);
  }
  buffer[count] = 0;
}

__spontaneous void __ccured_log_error(char* msg) {
  uint16_t len;
  uint16_t i;
  len = __ccured_strlen(msg);
  if (len > 127) {
    len = 127;
  }
  for (i = 0; i < len; i++) {
    __ccured_error_buffer[i] = msg[i];
  }
  __ccured_error_buffer[len] = 0;
  __ccured_error_length = (uint8_t)len;
}

__spontaneous void __ccured_open_log(void) {
  __ccured_log_open = 1;
}

__spontaneous void __ccured_close_log(void) {
  __ccured_log_open = 0;
}

__spontaneous void __ccured_write_log(char* msg) {
  if (__ccured_log_open == 0) {
    __ccured_open_log();
  }
  __ccured_log_error(msg);
}

__spontaneous void __ccured_signal_handler(uint16_t signal_number) {
  __ccured_error_length = 0;
  __ccured_format_dec(signal_number, __ccured_error_buffer);
  __halt(2);
}

__spontaneous void __ccured_abort(void) {
  __halt(3);
}
"""


@lru_cache(maxsize=None)
def _runtime_unit(strategy: MessageStrategy, full: bool
                  ) -> tuple[tuple[ast.GlobalVar, ...],
                             tuple[ast.FunctionDef, ...]]:
    """The parsed runtime of one configuration: a master copy, never linked
    into a program, so each cure links its own clone."""
    source = _check_helpers_source(strategy, full)
    if full:
        source = source + _FULL_RUNTIME_EXTRAS
    unit = parse_program(source, RUNTIME_UNIT)
    for var in unit.globals:
        var.origin = RUNTIME_UNIT
    for func in unit.functions:
        func.origin = RUNTIME_UNIT
        func.attributes["runtime"] = True
        if func.name.startswith("__ccured_check"):
            func.attributes["check"] = True
            func.attributes["inline"] = True
    return tuple(unit.globals), tuple(unit.functions)


def build_runtime(config: CCuredConfig) -> RuntimeLibrary:
    """Generate the runtime library dictated by ``config``.

    The source is parsed once per message strategy and runtime mode; every
    library gets fresh copies of its functions and globals.
    """
    globals_, functions = _runtime_unit(
        config.message_strategy, config.runtime_mode is RuntimeMode.FULL)
    return RuntimeLibrary(
        mode=config.runtime_mode, strategy=config.message_strategy,
        functions=[clone_function(func) for func in functions],
        globals=[clone_global(var) for var in globals_])
