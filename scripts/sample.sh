#!/usr/bin/env sh
# Where does a binary spend its CPU time? A SIGPROF sampler without `perf`:
#
#   scripts/sample.sh <binary> [args...]
#
# Builds a small LD_PRELOAD library with the system `cc` that samples the
# interrupted program counter on every ITIMER_PROF tick (all threads, CPU
# time, asked for at 997 Hz — SAMPLE_HZ overrides — and rounded by the kernel
# to its timer tick, e.g. 250 Hz), runs the binary under it and
# maps every sample to its innermost (inlined) function and source line with
# `addr2line -i`. Prints two tables of shares, by function and by line, the
# top SAMPLE_TOP (default 25) rows each, after the program's own output.
#
# Line tables: both release profiles of this repo (root and `benchmark/`)
# set `debug = true`, so `cargo build --release` output already carries
# them. A build without them gets them at build time from
# `CARGO_PROFILE_RELEASE_DEBUG=line-tables-only cargo build --release ...`
# (into its own CARGO_TARGET_DIR, so the usual build is not redone), with no
# Cargo.toml change. Scratch files land in target/sample/ (SAMPLE_DIR).
#
#   cargo build --release --example rtree_build
#   scripts/sample.sh target/release/examples/rtree_build 1
set -eu

[ $# -ge 1 ] || { echo "usage: $0 <binary> [args...]" >&2; exit 2; }
bin=$1
shift
[ -x "$bin" ] || { echo "$0: $bin is not an executable" >&2; exit 2; }
repo=$(cd "$(dirname "$0")/.." && pwd)
dir=${SAMPLE_DIR:-$repo/target/sample}
top=${SAMPLE_TOP:-25}
mkdir -p "$dir"

cat >"$dir/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define CAP (1 << 21)
static uintptr_t pcs[CAP];
static unsigned long taken;

static void on_prof(int sig, siginfo_t *si, void *ctx) {
    ucontext_t *uc = ctx;
    uintptr_t pc = 0;
#if defined(__x86_64__)
    pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    pc = (uintptr_t)uc->uc_mcontext.pc;
#endif
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < CAP)
        pcs[i] = pc;
    (void)sig;
    (void)si;
}

__attribute__((constructor)) static void sample_start(void) {
    unsetenv("LD_PRELOAD"); /* children run unsampled */
    const char *hz = getenv("SAMPLE_HZ");
    long us = 1000000 / (hz && atol(hz) > 0 ? atol(hz) : 997);
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it = {{0, us}, {0, us}};
    setitimer(ITIMER_PROF, &it, NULL);
}

struct hit { uintptr_t pc, base; const char *path; };

static int find_object(struct dl_phdr_info *info, size_t size, void *data) {
    struct hit *h = data;
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        uintptr_t lo = info->dlpi_addr + ph->p_vaddr;
        if (ph->p_type == PT_LOAD && h->pc >= lo && h->pc < lo + ph->p_memsz) {
            h->base = info->dlpi_addr;
            h->path = info->dlpi_name;
            return 1;
        }
    }
    (void)size;
    return 0;
}

/* One line per sample: the link-time address addr2line takes, and the
 * object it belongs to. */
__attribute__((destructor)) static void sample_stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    signal(SIGPROF, SIG_IGN);
    const char *out = getenv("SAMPLE_OUT");
    FILE *f = out ? fopen(out, "w") : NULL;
    if (!f)
        return;
    char exe[4096];
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    exe[len > 0 ? len : 0] = 0;
    unsigned long n = taken < CAP ? taken : CAP;
    for (unsigned long i = 0; i < n; i++) {
        struct hit h = {pcs[i], 0, NULL};
        if (!dl_iterate_phdr(find_object, &h))
            fprintf(f, "0 [unknown]\n");
        else
            fprintf(f, "%lx %s\n", (unsigned long)(h.pc - h.base),
                    h.path && *h.path ? h.path : exe);
    }
    fclose(f);
}
EOF
cc -O2 -shared -fPIC -o "$dir/sampler.so" "$dir/sampler.c"

samples="$dir/samples.txt"
rm -f "$samples"
SAMPLE_OUT="$samples" LD_PRELOAD="$dir/sampler.so" "$bin" "$@"
[ -s "$samples" ] || { echo "$0: no samples (did the program exit normally?)" >&2; exit 1; }

# Distinct samples as "count addr object"; each address is resolved once,
# into "object<TAB>addr<TAB>function<TAB>file:line".
sort "$samples" | uniq -c >"$dir/counts.txt"
: >"$dir/resolved.txt"
awk '{ print $3 }' "$dir/counts.txt" | sort -u | while IFS= read -r obj; do
    if [ -r "$obj" ]; then
        awk -v o="$obj" '$3 == o { print "0x" $2 }' "$dir/counts.txt" |
            addr2line -e "$obj" -a -f -C -i |
            awk -v o="$obj" '
                /^0x[0-9a-f]+$/ { addr = substr($0, 3); sub(/^0+/, "", addr); state = 0; next }
                state == 0 { fn = $0; state = 1; next }
                state == 1 { print o "\t" addr "\t" fn "\t" $0; state = 2 }'
    fi >>"$dir/resolved.txt"
done

awk -v top="$top" -v root="$repo/" -F '\t' '
    function tidy_fn(s) { sub(/::h[0-9a-f]+$/, "", s); return s }
    function tidy_loc(s) {
        sub(/ \(discriminator [0-9]+\)$/, "", s)
        if (index(s, root) == 1) s = substr(s, length(root) + 1)
        sub(/^\/rustc\/[0-9a-f]+\//, "rustc:", s)
        return s
    }
    function report(title, tbl,    k, n, i, j, key, tmp) {
        n = 0
        for (k in tbl) { n++; key[n] = k }
        for (i = 2; i <= n; i++) {
            tmp = key[i]
            for (j = i - 1; j >= 1 && tbl[key[j]] < tbl[tmp]; j--) key[j + 1] = key[j]
            key[j + 1] = tmp
        }
        printf "\n%s\n", title
        for (i = 1; i <= n && i <= top; i++)
            printf "%6.2f%% %7d  %s\n", 100 * tbl[key[i]] / total, tbl[key[i]], key[i]
    }
    # Without a line table (libc, the vdso) addr2line names the nearest
    # exported symbol, often the wrong one: charge the object instead.
    FILENAME == ARGV[1] && $4 ~ /^\?\?/ { next }
    FILENAME == ARGV[1] { fn[$1 SUBSEP $2] = tidy_fn($3); loc[$1 SUBSEP $2] = tidy_loc($4); next }
    {
        split($0, f, " ")
        count = f[1]; addr = f[2]; sub(/^0+/, "", addr); obj = substr($0, index($0, f[3]))
        total += count
        k = obj SUBSEP addr
        by_fn[k in fn ? fn[k] : "[" obj "]"] += count
        by_line[k in loc ? loc[k] : "[" obj "]"] += count
    }
    END {
        printf "\n%d samples\n", total
        report("by innermost function", by_fn)
        report("by source line", by_line)
    }' "$dir/resolved.txt" "$dir/counts.txt"
