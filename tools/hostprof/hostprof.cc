/**
 * @file
 * hostprof: a sampling host profiler loaded with LD_PRELOAD. It samples
 * only the process it is loaded into: an ITIMER_PROF timer raises
 * SIGPROF as the process burns CPU time, and each signal records the
 * interrupted program counter plus up to kMaxCallers return addresses
 * read from the frame-pointer chain. At exit it writes the samples and
 * /proc/self/maps to one text file, which tools/hostprof/hostprof.py
 * symbolizes and buckets.
 *
 *   LD_PRELOAD=build/libhostprof.so HOSTPROF_OUT=prof.%p.txt ./prog ...
 *   python3 tools/hostprof/hostprof.py prof.*.txt
 *
 * HOSTPROF_OUT names the output file; "%p" in it becomes the process id
 * (default hostprof.%p.txt in the working directory). The timer asks
 * for 1000 samples per CPU second; the kernel delivers it at its tick
 * at most, ~250 Hz on a CONFIG_HZ=250 kernel.
 *
 * Callers are read only on the main thread, whose stack top comes from
 * /proc/self/maps at load time and whose extent is bounded by the
 * stack size limit (at most 64 MiB here): every frame pointer must lie
 * word-aligned between the interrupted stack pointer and the stack's
 * top, and must grow up the stack, before its two words are read. In a
 * build that omits frame pointers the chain is garbage that this check
 * mostly rejects; the script uses callers only when asked to.
 */

#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace {

constexpr size_t kMaxCallers = 7;
constexpr size_t kRecord = 1 + kMaxCallers; ///< pc, then callers
constexpr size_t kMaxSamples = size_t{1} << 17;

uintptr_t g_samples[kMaxSamples * kRecord];
size_t g_next = 0; ///< claimed slots; may run past kMaxSamples
uintptr_t g_stackLo = 0;
uintptr_t g_stackHi = 0;
bool g_running = false;

/** Bound the main thread's stack: the top of the mapping that holds
 *  @p probe, and below it at most the stack size limit, into which the
 *  kernel maps nothing else. */
void
findMainStack(uintptr_t probe)
{
    FILE* maps = std::fopen("/proc/self/maps", "r");
    if (!maps)
        return;
    char line[512];
    while (std::fgets(line, sizeof line, maps)) {
        unsigned long lo = 0, hi = 0;
        if (std::sscanf(line, "%lx-%lx", &lo, &hi) == 2 && probe >= lo &&
            probe < hi) {
            g_stackHi = hi;
            break;
        }
    }
    std::fclose(maps);
    uintptr_t extent = uintptr_t{64} << 20;
    rlimit rl{};
    if (getrlimit(RLIMIT_STACK, &rl) == 0 && rl.rlim_cur < extent)
        extent = rl.rlim_cur;
    g_stackLo = g_stackHi > extent ? g_stackHi - extent : 0;
}

} // namespace

extern "C" void
hostprofOnSigprof(int /*sig*/, siginfo_t* /*info*/, void* ucv)
{
    const auto* uc = static_cast<const ucontext_t*>(ucv);
#if defined(__x86_64__)
    const uintptr_t pc = uc->uc_mcontext.gregs[REG_RIP];
    const uintptr_t sp = uc->uc_mcontext.gregs[REG_RSP];
    uintptr_t fp = uc->uc_mcontext.gregs[REG_RBP];
#elif defined(__aarch64__)
    const uintptr_t pc = uc->uc_mcontext.pc;
    const uintptr_t sp = uc->uc_mcontext.sp;
    uintptr_t fp = uc->uc_mcontext.regs[29];
#else
#error "hostprof reads registers on x86-64 and AArch64 only"
#endif
    const size_t slot = __atomic_fetch_add(&g_next, 1, __ATOMIC_RELAXED);
    if (slot >= kMaxSamples)
        return;
    uintptr_t* rec = &g_samples[slot * kRecord];
    rec[0] = pc;
    size_t n = 1;
    if (sp >= g_stackLo && sp < g_stackHi) {
        // Main thread: [sp, g_stackHi) is mapped, so a frame pointer
        // inside it can be read. Each frame is {saved fp, return pc}.
        uintptr_t lo = sp;
        while (n < kRecord && fp >= lo && fp % sizeof(uintptr_t) == 0 &&
               fp <= g_stackHi - 2 * sizeof(uintptr_t)) {
            const auto* frame = reinterpret_cast<const uintptr_t*>(fp);
            if (frame[1] == 0)
                break;
            rec[n++] = frame[1];
            lo = fp + 2 * sizeof(uintptr_t);
            fp = frame[0];
        }
    }
    for (; n < kRecord; ++n)
        rec[n] = 0;
}

namespace {

__attribute__((constructor)) void
hostprofStart()
{
    int probe = 0;
    findMainStack(reinterpret_cast<uintptr_t>(&probe));
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = hostprofOnSigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, nullptr) != 0)
        return;
    itimerval it{};
    it.it_interval.tv_usec = 1000;
    it.it_value = it.it_interval;
    g_running = setitimer(ITIMER_PROF, &it, nullptr) == 0;
}

__attribute__((destructor)) void
hostprofStop()
{
    if (!g_running)
        return;
    g_running = false;
    itimerval off{};
    setitimer(ITIMER_PROF, &off, nullptr);
    signal(SIGPROF, SIG_IGN);

    std::string path = "hostprof.%p.txt";
    if (const char* s = std::getenv("HOSTPROF_OUT"))
        path = s;
    const std::string pid = std::to_string(getpid());
    for (size_t at = path.find("%p"); at != std::string::npos;
         at = path.find("%p", at + pid.size()))
        path.replace(at, 2, pid);
    FILE* out = std::fopen(path.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "hostprof: cannot write %s\n", path.c_str());
        return;
    }
    const size_t taken = __atomic_load_n(&g_next, __ATOMIC_RELAXED);
    const size_t kept = taken < kMaxSamples ? taken : kMaxSamples;
    std::fprintf(out, "hostprof 1 samples %zu dropped %zu\nmaps\n", kept,
                 taken - kept);
    if (FILE* maps = std::fopen("/proc/self/maps", "r")) {
        char line[4096];
        while (std::fgets(line, sizeof line, maps))
            std::fputs(line, out);
        std::fclose(maps);
    }
    std::fputs("samples\n", out);
    for (size_t i = 0; i < kept; ++i) {
        const uintptr_t* rec = &g_samples[i * kRecord];
        std::fprintf(out, "%lx", static_cast<unsigned long>(rec[0]));
        for (size_t k = 1; k < kRecord && rec[k] != 0; ++k)
            std::fprintf(out, " %lx", static_cast<unsigned long>(rec[k]));
        std::fputc('\n', out);
    }
    std::fclose(out);
}

} // namespace
