#!/usr/bin/env bash
# Per-function host-time profile of any command, with no profiler installed.
#
#   scripts/profile.sh [--hz N] [--top N] -- COMMAND [ARGS...]
#
# Builds a small LD_PRELOAD sampler with the system C compiler: a POSIX
# timer (timer_create on CLOCK_MONOTONIC) raises SIGPROF N times per second
# (default 10000), and the handler records the interrupted instruction
# pointer from the signal's ucontext. The clock is wall time because CPU-time
# timers fire only at the kernel tick (a few hundred Hz); a process blocked
# in a system call is sampled at its libc call site. At exit each
# process writes its executable's path and every sample inside it as a
# link-time address (the runtime address minus the PIE load bias); this
# script then symbolizes them with `addr2line -i`, so inlined frames count
# too. It prints, per profiled process, the top functions by
#
#   self  - share of samples whose innermost (possibly inlined) frame is
#           the function;
#   incl  - share of samples with the function anywhere in the inline
#           chain of the sampled instruction (not a call-graph total:
#           out-of-line callers are not unwound).
#
# Samples in shared libraries (libc, the vDSO) are counted as
# `[outside executable]`. Inline frames need DWARF line info: the root
# workspace's release profile has it; for cmpbench build with
#   CARGO_PROFILE_RELEASE_DEBUG=true cargo build --release --offline \
#       --manifest-path cmpbench/Cargo.toml
# Example:
#   scripts/profile.sh -- cmpbench/target/release/cmpbench \
#       --workload mesh64 --seed 1 --seconds 10 --trace 0
# A sampling aid for finding hot code, not a verify gate.
set -euo pipefail

hz=10000
top=25
while [ $# -gt 0 ]; do
    case "$1" in
        --hz) hz=$2; shift 2 ;;
        --top) top=$2; shift 2 ;;
        --) shift; break ;;
        *) echo "usage: $0 [--hz N] [--top N] -- COMMAND [ARGS...]" >&2; exit 2 ;;
    esac
done
[ $# -gt 0 ] || { echo "usage: $0 [--hz N] [--top N] -- COMMAND [ARGS...]" >&2; exit 2; }

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

cat > "$work/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define CAP (1u << 22)
static unsigned long *rips;
static unsigned long count;

static void on_prof(int sig, siginfo_t *si, void *ctx) {
    (void)sig; (void)si;
    unsigned long i = __atomic_fetch_add(&count, 1, __ATOMIC_RELAXED);
    if (i < CAP) rips[i] = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

/* The main program is the first object; report its bias and load range. */
static int main_object(struct dl_phdr_info *info, size_t size, void *out) {
    (void)size;
    unsigned long *r = out, lo = ~0ul, hi = 0;
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *p = &info->dlpi_phdr[i];
        if (p->p_type != PT_LOAD) continue;
        unsigned long a = info->dlpi_addr + p->p_vaddr;
        if (a < lo) lo = a;
        if (a + p->p_memsz > hi) hi = a + p->p_memsz;
    }
    r[0] = info->dlpi_addr; r[1] = lo; r[2] = hi;
    return 1;
}

__attribute__((constructor)) static void start(void) {
    const char *hz = getenv("PROF_HZ");
    if (!getenv("PROF_OUT") || !hz || !(rips = malloc(CAP * sizeof *rips))) return;
    struct sigaction sa = {0};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct sigevent ev = {0};
    ev.sigev_notify = SIGEV_SIGNAL;
    ev.sigev_signo = SIGPROF;
    timer_t t;
    long ns = 1000000000L / atol(hz);
    struct timespec every = {ns / 1000000000L, ns % 1000000000L};
    struct itimerspec its = {every, every};
    if (timer_create(CLOCK_MONOTONIC, &ev, &t) == 0) timer_settime(t, 0, &its, NULL);
}

__attribute__((destructor)) static void stop(void) {
    if (!rips) return;
    signal(SIGPROF, SIG_IGN);
    char path[4096], exe[4096];
    snprintf(path, sizeof path, "%s.%d", getenv("PROF_OUT"), (int)getpid());
    ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    FILE *f = fopen(path, "w");
    if (!f || n < 0) return;
    exe[n] = 0;
    unsigned long r[3] = {0, 0, 0};
    dl_iterate_phdr(main_object, r);
    fprintf(f, "%s\n", exe);
    /* Link-time addresses: the runtime address minus the PIE load bias. */
    unsigned long total = count < CAP ? count : CAP;
    for (unsigned long i = 0; i < total; i++) {
        if (rips[i] >= r[1] && rips[i] < r[2]) fprintf(f, "0x%lx\n", rips[i] - r[0]);
        else fprintf(f, "outside\n");
    }
    fclose(f);
}
EOF
cc -O2 -shared -fPIC -o "$work/sampler.so" "$work/sampler.c" -lrt

set +e
PROF_OUT="$work/samples" PROF_HZ="$hz" LD_PRELOAD="$work/sampler.so" "$@"
rc=$?
set -e

for f in "$work"/samples.*; do
    [ -e "$f" ] || { echo "profile: no samples written" >&2; break; }
    exe=$(head -n 1 "$f")
    tail -n +2 "$f" | sort | uniq -c > "$work/counts"
    total=$(awk '{ s += $1 } END { print s + 0 }' "$work/counts")
    echo "== $exe (pid ${f##*.}): $total samples at $hz Hz =="
    [ "$total" -gt 0 ] || continue
    awk '$2 != "outside" { print $2 }' "$work/counts" \
        | addr2line -a -f -i -C -e "$exe" > "$work/sym"
    # addr2line -a prints each address, then (function, file:line) pairs,
    # innermost inline frame first.
    awk -v total="$total" '
        FNR == NR { n[$2] = $1; next }
        /^0x/ { addr = $0; sub(/^0x0*/, "", addr); addr = "0x" addr; k = 0; split("", seen); next }
        (k++ % 2) == 0 {
            fn = $0; sub(/::h[0-9a-f]+$/, "", fn)
            if (k == 1) self[fn] += n[addr]
            if (!(fn in seen)) { incl[fn] += n[addr]; seen[fn] = 1 }
        }
        END {
            if ("outside" in n) self["[outside executable]"] = incl["[outside executable]"] = n["outside"]
            for (fn in incl) printf "%6.2f %6.2f  %s\n", 100 * self[fn] / total, 100 * incl[fn] / total, fn
        }' "$work/counts" "$work/sym" \
        | sort -rn | head -n "$top" | { echo "  self%  incl%  function"; cat; }
done
exit $rc
