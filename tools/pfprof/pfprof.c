/* pfprof: an LD_PRELOAD sampling profiler for hosts without perf.
 *
 * Every 1 ms of CPU time SIGPROF records the interrupted instruction's
 * address relative to the executable's load base; at exit the samples are
 * written, one hex offset per line, to $PFPROF_OUT (default pfprof.samples).
 * Fold them with fold.py. Build and use: see README.md.
 */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1u << 20)

static uintptr_t samples[MAX_SAMPLES];
static volatile unsigned count;
static uintptr_t base;

static int main_object(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size;
    (void)data;
    base = info->dlpi_addr; /* the first object is the executable */
    return 1;
}

static void on_prof(int sig, siginfo_t *si, void *ctx) {
    (void)sig;
    (void)si;
    if (count < MAX_SAMPLES)
        samples[count++] = (uintptr_t)((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("PFPROF_OUT");
    FILE *f = fopen(path ? path : "pfprof.samples", "w");
    if (!f)
        return;
    for (unsigned i = 0; i < count; i++)
        fprintf(f, "%lx\n", (unsigned long)(samples[i] - base));
    fclose(f);
}

__attribute__((constructor)) static void start(void) {
    dl_iterate_phdr(main_object, NULL);
    struct sigaction sa = {0};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
    atexit(dump);
}
