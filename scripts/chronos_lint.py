#!/usr/bin/env python3
"""Repo-specific lint for the Chronos C++ tree.

Rules (each can be suppressed on a line with `// chronos-lint: allow`):

  raw-mutex        No raw <mutex>/<shared_mutex> primitives outside
                   src/common/ — use chronos::Mutex / MutexLock /
                   SharedMutex / CondVar (src/common/mutex.h) so Clang's
                   -Wthread-safety can check lock discipline.
  locked-io        No logging / stdio / HTTP calls inside a function whose
                   signature carries CHRONOS_REQUIRES(...) — those bodies run
                   with a lock held, and I/O under a lock is the repo's
                   canonical latency bug.
  include-guard    Header guards must be CHRONOS_<PATH>_H_ derived from the
                   path under src/ (tests/ and bench/ headers are exempt).
  dropped-status   A Status/StatusOr-returning call used as a bare statement
                   drops the error. `.ok();` drops it too (calling .ok() and
                   ignoring the answer). Use CHRONOS_RETURN_IF_ERROR, check
                   the value, or make the drop explicit with .IgnoreError().
  include-order    #include blocks must be internally sorted (matching
                   clang-format's style), so diffs stay mechanical.
  raw-sleep        No direct SystemClock::Get()->SleepMs(...) in src/ —
                   retry/poll/backoff sleeps must go through an injected
                   Clock* (see common/retry.h RetryPolicy/Backoff) so
                   SimulatedClock keeps tests deterministic and wall-clock
                   free. clock.cc (the implementation) and src/tools/
                   (interactive CLIs) are exempt.
  raw-steady-clock No std::chrono::steady_clock::now() timing in src/ —
                   measure durations with an obs::Span (records, exports,
                   and slow-logs in one place) or Clock::MonotonicNanos
                   through an injected Clock*. Sanctioned files: the clock
                   implementation itself, CondVar deadline arithmetic in
                   mutex.h/heartbeat_monitor.cc, and uuid.cc's
                   seed.
  raw-accept       No TcpListener::Accept calls in src/ outside the
                   connection-serving core (net/connection_server.cc) and
                   FTP's passive data channel (net/ftp.cc): servers are
                   built on net::ConnectionServer, so a new protocol gets
                   its bounded Stop(), connection cap and accept-error
                   handling without growing another accept loop.

Usage:
  scripts/chronos_lint.py [--root DIR] [paths...]   lint tree or given files
  scripts/chronos_lint.py --self-test               run embedded lint tests
"""

import argparse
import pathlib
import re
import sys

SOURCE_DIRS = ("src", "tests", "bench", "examples")
CPP_SUFFIXES = {".cc", ".h"}
SUPPRESS = "chronos-lint: allow"

# --- Rule: raw-mutex -------------------------------------------------------

RAW_MUTEX_RE = re.compile(
    r"\bstd::(mutex|shared_mutex|recursive_mutex|timed_mutex|lock_guard|"
    r"unique_lock|shared_lock|scoped_lock|condition_variable(_any)?)\b"
)
# The wrappers themselves may touch <mutex>;
# std::once_flag/call_once stay allowed everywhere (no annotation story).
RAW_MUTEX_EXEMPT = ("src/common/mutex.h",)


def check_raw_mutex(path, rel, lines, errors):
    if rel in RAW_MUTEX_EXEMPT:
        return
    for i, line in enumerate(lines, 1):
        if SUPPRESS in line:
            continue
        m = RAW_MUTEX_RE.search(strip_comment(line))
        if m:
            errors.append(
                (rel, i, "raw-mutex",
                 f"use chronos locking wrappers instead of std::{m.group(1)} "
                 "(see src/common/mutex.h)"))


# --- Rule: locked-io -------------------------------------------------------

REQUIRES_RE = re.compile(r"CHRONOS_REQUIRES(_SHARED)?\s*\(")
# Narrow token list: calls that do I/O or re-enter other subsystems. WAL and
# snapshot writes under TableStore's mutex are the storage layer's contract,
# so file primitives (fopen/fwrite/WriteFile) are deliberately NOT listed.
LOCKED_IO_RE = re.compile(
    r"\b(CHRONOS_LOG|printf|fprintf|puts|std::cout|std::cerr|"
    r"HttpGet|HttpPost|SendRequest|WriteLine|ReadLine)\b"
)


def check_locked_io(path, rel, lines, errors):
    """Flags I/O tokens inside function bodies annotated CHRONOS_REQUIRES.

    Heuristic body tracker: from a line whose signature carries
    CHRONOS_REQUIRES, follow brace depth until the body closes.
    """
    depth = 0
    in_requires_body = False
    body_start = 0
    for i, line in enumerate(lines, 1):
        code = strip_comment(line)
        if not in_requires_body and REQUIRES_RE.search(code):
            # Only function definitions matter; declarations end with ';'
            # before any '{' is seen. Scan forward on this line first.
            pass_depth = code.count("{") - code.count("}")
            if "{" in code:
                in_requires_body = True
                depth = pass_depth
                body_start = i
                if depth <= 0:
                    in_requires_body = False
                continue
            # Signature continues on following lines; peek until ';' or '{'.
            j = i
            while j < len(lines):
                nxt = strip_comment(lines[j])
                if ";" in nxt:
                    break
                if "{" in nxt:
                    in_requires_body = True
                    depth = nxt.count("{") - nxt.count("}")
                    body_start = j + 1
                    break
                j += 1
            continue
        if in_requires_body:
            if SUPPRESS not in line:
                m = LOCKED_IO_RE.search(code)
                if m:
                    errors.append(
                        (rel, i, "locked-io",
                         f"{m.group(1)} inside a CHRONOS_REQUIRES body "
                         f"(function at line {body_start}) runs under a "
                         "lock; copy state out and do I/O after unlocking"))
            depth += code.count("{") - code.count("}")
            if depth <= 0:
                in_requires_body = False


# --- Rule: raw-sleep -------------------------------------------------------

RAW_SLEEP_RE = re.compile(r"SystemClock::Get\(\)\s*->\s*SleepMs")
# clock.cc/h implement the clock itself; tools/ are interactive CLIs whose
# waits are real by nature (e.g. `chronosctl evaluation watch`).
RAW_SLEEP_EXEMPT_PREFIXES = ("src/common/clock.", "src/tools/")


def check_raw_sleep(path, rel, lines, errors):
    if any(rel.startswith(p) for p in RAW_SLEEP_EXEMPT_PREFIXES):
        return
    for i, line in enumerate(lines, 1):
        if SUPPRESS in line:
            continue
        if RAW_SLEEP_RE.search(strip_comment(line)):
            errors.append(
                (rel, i, "raw-sleep",
                 "direct SystemClock sleep; take a Clock* (options/ctor) "
                 "and use RetryPolicy/Backoff from common/retry.h so "
                 "SimulatedClock tests stay deterministic"))


# --- Rule: raw-steady-clock ------------------------------------------------

RAW_STEADY_CLOCK_RE = re.compile(r"std::chrono::steady_clock::now\s*\(")
# clock.cc implements MonotonicNanos; mutex.h / heartbeat_monitor.cc compute
# CondVar wait deadlines (absolute time points, not measurements); uuid.cc
# seeds its RNG from the tick counter.
RAW_STEADY_CLOCK_EXEMPT = (
    "src/common/clock.cc",
    "src/common/mutex.h",
    "src/common/uuid.cc",
    "src/control/heartbeat_monitor.cc",
)


def check_raw_steady_clock(path, rel, lines, errors):
    if rel in RAW_STEADY_CLOCK_EXEMPT:
        return
    for i, line in enumerate(lines, 1):
        if SUPPRESS in line:
            continue
        if RAW_STEADY_CLOCK_RE.search(strip_comment(line)):
            errors.append(
                (rel, i, "raw-steady-clock",
                 "raw steady_clock::now() timing; wrap the region in an "
                 "obs::Span (src/obs/span.h) or read an injected Clock*'s "
                 "MonotonicNanos so durations are traced and testable"))


# --- Rule: raw-accept ------------------------------------------------------

RAW_ACCEPT_RE = re.compile(r"(->|\.)\s*Accept\s*\(")
RAW_ACCEPT_EXEMPT = ("src/net/connection_server.cc", "src/net/ftp.cc")


def check_raw_accept(path, rel, lines, errors):
    if rel in RAW_ACCEPT_EXEMPT:
        return
    for i, line in enumerate(lines, 1):
        if SUPPRESS in line:
            continue
        if RAW_ACCEPT_RE.search(strip_comment(line)):
            errors.append(
                (rel, i, "raw-accept",
                 "raw TcpListener::Accept; serve connections through "
                 "net::ConnectionServer (src/net/connection_server.h), the "
                 "one accept loop"))


# --- Rule: raw-exit --------------------------------------------------------

RAW_EXIT_RE = re.compile(
    r"(?<![\w.:])(?:(?:std)?::\s*)?"
    r"(?:signal|sigaction|exit|_exit|quick_exit|abort)\s*\(")
# Process-lifecycle primitives must route through the sanctioned seams so
# every exit path is crash-consistent and testable: failpoint.cc implements
# the crash mode, lifecycle.cc owns the SIGTERM/SIGINT self-pipe, and the
# server main is the process entry point.
RAW_EXIT_EXEMPT = (
    "src/fault/failpoint.cc",
    "src/control/lifecycle.cc",
    "src/tools/control_server_main.cc",
)


def check_raw_exit(path, rel, lines, errors):
    if rel in RAW_EXIT_EXEMPT:
        return
    for i, line in enumerate(lines, 1):
        if SUPPRESS in line:
            continue
        if RAW_EXIT_RE.search(strip_comment(line)):
            errors.append(
                (rel, i, "raw-exit",
                 "raw signal()/exit()-family call; process lifecycle must "
                 "go through control/lifecycle.h (shutdown) or the fault "
                 "registry's crash mode (tests) so shutdown stays "
                 "crash-consistent"))


# --- Rule: include-guard ---------------------------------------------------


def expected_guard(rel):
    # src/common/mutex.h -> CHRONOS_COMMON_MUTEX_H_
    parts = pathlib.PurePosixPath(rel).parts
    if parts[0] != "src":
        return None  # Only src/ headers carry the canonical prefix.
    stem = "_".join(parts[1:])
    stem = re.sub(r"[^A-Za-z0-9]", "_", stem).upper()
    return f"CHRONOS_{stem}_" if stem.endswith("_H") else f"CHRONOS_{stem}_H_"


def check_include_guard(path, rel, lines, errors):
    if not rel.endswith(".h"):
        return
    want = expected_guard(rel)
    if want is None:
        return
    text = "\n".join(lines)
    m = re.search(r"#ifndef\s+(\S+)\s*\n#define\s+(\S+)", text)
    if not m:
        errors.append((rel, 1, "include-guard",
                       f"missing include guard (expected {want})"))
        return
    if m.group(1) != want or m.group(2) != want:
        errors.append((rel, 1, "include-guard",
                       f"guard {m.group(1)} should be {want}"))


# --- Rule: dropped-status --------------------------------------------------

# Built once per run from header declarations. A name counts only if EVERY
# declaration of it returns Status/StatusOr — names that something else also
# declares with a different return type (Append, Get, ...) are ambiguous to
# a text-level lint and are skipped rather than guessed at.
STATUS_DECL_RE = re.compile(
    r"^\s*(?:virtual\s+)?(?:static\s+)?Status(?:Or<[^;=]*>)?\s+(\w+)\s*\(")
OTHER_DECL_RE = re.compile(
    r"^\s*(?:virtual\s+)?(?:static\s+)?"
    r"(?!Status\b|StatusOr\b|return\b|if\b|while\b|for\b|else\b|case\b)"
    r"[\w:]+(?:<[^;={}]*>)?[&*\s]+(\w+)\s*\(")

# Obvious non-dropping contexts on the same line.
DROP_OK_RE = re.compile(r"\.ok\(\)\s*;\s*(//.*)?$")

def final_call_name(stmt):
    """For a single-line call statement ("a->b(x)->c(y);"), returns the name
    of the LAST top-level call in the chain ("c") — the one whose return
    value the statement discards. None if the line is not call-shaped or
    contains a top-level '=' (an assignment consumes the value)."""
    if not stmt.endswith(";") or not re.match(r"^[A-Za-z_(]", stmt):
        return None
    depth = 0
    current = ""
    word_before = None  # Identifier separated from `current` by whitespace.
    last_name = None
    prev = ""
    for ch in stmt:
        if ch == "(":
            if depth == 0 and current:
                if word_before:
                    # `Type Name(` — a declaration, not a call statement.
                    return None
                last_name = current
            depth += 1
            current = ""
            word_before = None
        elif ch == ")":
            depth -= 1
            current = ""
            word_before = None
        elif ch.isalnum() or ch == "_":
            if depth == 0:
                current += ch
        else:
            if depth == 0:
                if ch == "=":
                    return None
                if ch in " \t":
                    if current:
                        word_before = current
                elif (ch in "*&" or (ch == ">" and prev != "-")):
                    # A type just ended: `StatusOr<T>`, `Json*`, `Json&` —
                    # whatever follows is a declared name, not a call.
                    word_before = "<type>"
                else:
                    word_before = None
                current = ""
        prev = ch
    return last_name


def collect_status_functions(root):
    status_names = set()
    other_names = set()
    for d in SOURCE_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in base.rglob("*"):
            if path.suffix not in CPP_SUFFIXES:
                continue
            try:
                for line in path.read_text(errors="replace").splitlines():
                    m = STATUS_DECL_RE.match(line)
                    if m:
                        status_names.add(m.group(1))
                        continue
                    m = OTHER_DECL_RE.match(line)
                    if m:
                        other_names.add(m.group(1))
            except OSError:
                continue
    names = status_names - other_names
    # Never treat constructors/factories named like types as droppable.
    names.discard("Ok")
    return names


def at_statement_start(lines, index):
    """True when lines[index] (0-based) begins a new statement, i.e. is not
    a continuation of a multi-line call like CHRONOS_ASSIGN_OR_RETURN."""
    for j in range(index - 1, -1, -1):
        prev = strip_comment(lines[j]).strip()
        if not prev:
            continue
        if prev.startswith("#"):
            return not prev.endswith("\\")
        return prev.endswith((";", "{", "}", ":"))
    return True


def check_dropped_status(path, rel, lines, errors, status_functions):
    for i, line in enumerate(lines, 1):
        if SUPPRESS in line:
            continue
        code = strip_comment(line)
        stripped = code.strip()
        if not at_statement_start(lines, i - 1):
            continue
        # Case 1: `expr.ok();` as a full statement — the classic silent drop
        # that [[nodiscard]] cannot catch (calling .ok() IS a use).
        if DROP_OK_RE.search(code) and not re.search(
                r"\b(if|while|for|return|assert|EXPECT|ASSERT|CHECK)\b",
                code) and "=" not in code.split(".ok()")[0].split("(")[0]:
            errors.append(
                (rel, i, "dropped-status",
                 "`.ok();` discards the status; use IgnoreError() for an "
                 "intentional drop or actually handle the failure"))
            continue
        # Case 2: bare call statement `obj->Foo(...);` where the FINAL call
        # in the chain returns Status and nothing consumes it.
        name = final_call_name(stripped)
        if (name and name in status_functions
                and not stripped.startswith(("return ", "if ", "while ",
                                             "for ", "case ", "delete ",
                                             "new ", "(void)"))
                and ".IgnoreError()" not in stripped):
            errors.append(
                (rel, i, "dropped-status",
                 f"return value of {name} (a Status) is dropped; "
                 "propagate it, check it, or append .IgnoreError()"))


# --- Rule: include-order ---------------------------------------------------


def check_include_order(path, rel, lines, errors):
    block = []
    block_start = 0
    for i, line in enumerate(lines + [""], 1):
        m = re.match(r'#include\s+([<"][^">]+[">])', line)
        if m and SUPPRESS not in line:
            if not block:
                block_start = i
            block.append((i, m.group(1)))
        else:
            if len(block) > 1:
                names = [inc for _, inc in block]
                if names != sorted(names):
                    errors.append(
                        (rel, block_start, "include-order",
                         "#include block is not sorted"))
            block = []


# --- Driver ----------------------------------------------------------------


def strip_comment(line):
    # Good enough for lint purposes; string literals with // are rare here.
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def lint_file(root, path, status_functions):
    rel = path.relative_to(root).as_posix()
    try:
        lines = path.read_text(errors="replace").splitlines()
    except OSError as e:
        return [(rel, 0, "io", str(e))]
    errors = []
    if rel.startswith("src/"):
        check_raw_mutex(path, rel, lines, errors)
        check_raw_sleep(path, rel, lines, errors)
        check_raw_steady_clock(path, rel, lines, errors)
        check_raw_exit(path, rel, lines, errors)
        check_raw_accept(path, rel, lines, errors)
    check_locked_io(path, rel, lines, errors)
    check_include_guard(path, rel, lines, errors)
    check_dropped_status(path, rel, lines, errors, status_functions)
    check_include_order(path, rel, lines, errors)
    return errors


def iter_files(root, paths):
    if paths:
        for p in paths:
            path = pathlib.Path(p).resolve()
            if path.suffix in CPP_SUFFIXES:
                yield path
        return
    for d in SOURCE_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in CPP_SUFFIXES:
                yield path


def run_lint(root, paths):
    status_functions = collect_status_functions(root)
    failures = []
    count = 0
    for path in iter_files(root, paths):
        count += 1
        failures.extend(lint_file(root, path, status_functions))
    for rel, line, rule, msg in failures:
        print(f"{rel}:{line}: [{rule}] {msg}")
    print(f"chronos_lint: {count} files, {len(failures)} finding(s)")
    return 1 if failures else 0


# --- Self test -------------------------------------------------------------

BAD_RAW_MUTEX = """\
#ifndef CHRONOS_X_Y_H_
#define CHRONOS_X_Y_H_
#include <mutex>
namespace chronos { struct S { std::mutex mu_; }; }
#endif  // CHRONOS_X_Y_H_
"""

BAD_LOCKED_IO = """\
#include "common/mutex.h"
namespace chronos {
void Thing::RefreshLocked() CHRONOS_REQUIRES(mu_) {
  CHRONOS_LOG(kInfo, "thing") << "refreshing";
  counter_++;
}
}  // namespace chronos
"""

BAD_GUARD = """\
#ifndef WRONG_GUARD_H
#define WRONG_GUARD_H
#endif
"""

BAD_DROPPED = """\
#include "common/status.h"
void f(Repo* repo) {
  repo->Insert(thing);
  repo->Update(thing).ok();
  CHRONOS_RETURN_IF_ERROR(repo->Insert(thing));
  repo->Delete(thing).IgnoreError();
}
"""

BAD_INCLUDE_ORDER = """\
#include <vector>
#include <string>
"""

BAD_RAW_SLEEP = """\
#include "common/clock.h"
namespace chronos {
void PollLoop() {
  while (true) {
    SystemClock::Get()->SleepMs(100);
  }
}
}  // namespace chronos
"""

BAD_STEADY_CLOCK = """\
#include <chrono>
namespace chronos {
void Measure() {
  auto start = std::chrono::steady_clock::now();
  DoWork();
  auto elapsed = std::chrono::steady_clock::now() - start;
  (void)elapsed;
}
}  // namespace chronos
"""

BAD_RAW_EXIT = """\
#include <cstdlib>
namespace chronos {
void Die() {
  ::_exit(1);
}
}  // namespace chronos
"""

BAD_RAW_ACCEPT = """\
#include "net/tcp.h"
namespace chronos {
void Loop(net::TcpListener* listener) {
  while (true) {
    auto conn = listener->Accept();
    if (!conn.ok()) break;
  }
}
}  // namespace chronos
"""

GOOD = """\
#ifndef CHRONOS_X_GOOD_H_
#define CHRONOS_X_GOOD_H_
#include <string>
#include <vector>

#include "common/mutex.h"
namespace chronos {
class Thing {
 public:
  void Tick();
 private:
  void TickLocked() CHRONOS_REQUIRES(mu_);
  Mutex mu_;
  int counter_ CHRONOS_GUARDED_BY(mu_) = 0;
};
}  // namespace chronos
#endif  // CHRONOS_X_GOOD_H_
"""


def self_test():
    import tempfile

    cases = [
        # (filename under src/, contents, rule expected at least once)
        ("src/x/y.h", BAD_RAW_MUTEX, "raw-mutex"),
        ("src/x/thing.cc", BAD_LOCKED_IO, "locked-io"),
        ("src/x/guard.h", BAD_GUARD, "include-guard"),
        ("src/x/drop.cc", BAD_DROPPED, "dropped-status"),
        ("src/x/order.cc", BAD_INCLUDE_ORDER, "include-order"),
        ("src/x/sleepy.cc", BAD_RAW_SLEEP, "raw-sleep"),
        # The same sleep under src/tools/ is allowlisted (interactive CLI).
        ("src/tools/watcher.cc", BAD_RAW_SLEEP, None),
        ("src/x/dying.cc", BAD_RAW_EXIT, "raw-exit"),
        # The same call in a sanctioned lifecycle file is allowlisted.
        ("src/control/lifecycle.cc", BAD_RAW_EXIT, None),
        ("src/x/timing.cc", BAD_STEADY_CLOCK, "raw-steady-clock"),
        # The clock implementation itself may read the raw tick source.
        ("src/common/clock.cc", BAD_STEADY_CLOCK, None),
        ("src/x/server.cc", BAD_RAW_ACCEPT, "raw-accept"),
        # The connection-serving core is the one sanctioned accept loop.
        ("src/net/connection_server.cc", BAD_RAW_ACCEPT, None),
        ("src/x/good.h", GOOD, None),
    ]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        # A header declaring Status-returning methods feeds dropped-status.
        decls = root / "src" / "x" / "repo.h"
        decls.parent.mkdir(parents=True)
        decls.write_text(
            "#ifndef CHRONOS_X_REPO_H_\n#define CHRONOS_X_REPO_H_\n"
            "struct Repo {\n  Status Insert(int);\n  Status Update(int);\n"
            "  Status Delete(int);\n};\n#endif  // CHRONOS_X_REPO_H_\n")
        status_functions = collect_status_functions(root)
        for name, contents, want_rule in cases:
            path = root / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(contents)
            found = lint_file(root, path, status_functions)
            rules = {rule for _, _, rule, _ in found}
            if want_rule is None:
                if found:
                    print(f"SELF-TEST FAIL: {name} expected clean, got "
                          f"{found}")
                    failures += 1
            elif want_rule not in rules:
                print(f"SELF-TEST FAIL: {name} expected [{want_rule}], got "
                      f"{sorted(rules) or 'no findings'}")
                failures += 1
        # dropped-status must not flag the checked/suppressed lines.
        drop_findings = [
            f for f in lint_file(root, root / "src/x/drop.cc",
                                 status_functions)
            if f[2] == "dropped-status"
        ]
        if len(drop_findings) != 2:  # Insert bare + .ok(); drop, not others.
            print(f"SELF-TEST FAIL: drop.cc expected exactly 2 "
                  f"dropped-status findings, got {drop_findings}")
            failures += 1
    if failures:
        print(f"chronos_lint self-test: {failures} failure(s)")
        return 1
    print("chronos_lint self-test: OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the embedded known-bad snippet tests")
    parser.add_argument("paths", nargs="*",
                        help="specific files to lint (default: whole tree)")
    args = parser.parse_args()
    if args.self_test:
        sys.exit(self_test())
    root = pathlib.Path(
        args.root if args.root else pathlib.Path(__file__).resolve().parent /
        "..").resolve()
    sys.exit(run_lint(root, args.paths))


if __name__ == "__main__":
    main()
