/**
 * @file
 * System-call interposition paths: HFI's microcode redirect vs ERIM's
 * Seccomp-bpf (§6.4.1), plus the miniature kernel the open/read/close
 * microbenchmark calls into.
 *
 * Both interposers mediate the same syscall stream and end by allowing
 * the call; they differ only in what the mediation costs:
 *
 *  - HFI: a 1-cycle microcode check at decode plus a jump to the exit
 *    handler (§4.4) and an hfi_reenter afterwards;
 *  - Seccomp: the kernel's fixed seccomp entry bookkeeping plus the cBPF
 *    filter program, actually executed instruction by instruction.
 */

#ifndef HFI_SYSCALL_INTERPOSER_H
#define HFI_SYSCALL_INTERPOSER_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/context.h"
#include "syscall/bpf.h"
#include "vm/virtual_clock.h"

namespace hfi::syscall
{

/** x86-64 syscall numbers used by the experiments. */
constexpr std::uint32_t kSysRead = 0;
constexpr std::uint32_t kSysWrite = 1;
constexpr std::uint32_t kSysOpen = 2;
constexpr std::uint32_t kSysClose = 3;
constexpr std::uint32_t kSysMmap = 9;
constexpr std::uint32_t kSysMprotect = 10;
constexpr std::uint32_t kSysMadvise = 28;
constexpr std::uint32_t kSysExitGroup = 231;

/** What the interposition layer decided. */
enum class Verdict
{
    Allow,
    Deny,
};

/** Cost parameters for the two interposition mechanisms. */
struct InterposeCosts
{
    /** Seccomp entry/exit bookkeeping in the kernel syscall path, ns. */
    double seccompFixedNs = 50.0;
    /** Per-executed-BPF-instruction cost, ns (kernel interpreter). */
    double bpfInsnNs = 2.2;
    /** Cycles the trusted runtime's exit handler spends dispatching. */
    std::uint64_t hfiHandlerCycles = 14;
};

/** The costs both interposers charge. */
inline constexpr InterposeCosts kInterposeCosts{};

/**
 * Interposes using HFI's native-sandbox syscall redirect. The sandboxed
 * code's syscall decodes into a jump to the exit handler; the handler
 * consults its policy and re-enters.
 */
class HfiInterposer
{
  public:
    HfiInterposer(core::HfiContext &ctx,
                  std::vector<std::uint32_t> allowed_nrs);

    /** Mediate one syscall issued inside the (native) sandbox. */
    Verdict onSyscall(const SeccompData &data);

    std::uint64_t mediated() const { return mediated_; }

  private:
    core::HfiContext &ctx;
    std::vector<std::uint32_t> allowed;
    std::uint64_t mediated_ = 0;
};

/** Interposes by running a seccomp cBPF filter on every syscall. */
class SeccompInterposer
{
  public:
    SeccompInterposer(vm::VirtualClock &clock,
                      std::vector<std::uint32_t> allowed_nrs);

    Verdict onSyscall(const SeccompData &data);

    std::uint64_t mediated() const { return mediated_; }
    const std::vector<BpfInsn> &filter() const { return filter_; }

  private:
    vm::VirtualClock &clock;
    std::vector<BpfInsn> filter_;
    std::uint64_t mediated_ = 0;
};

/** Per-call costs of the modeled kernel file layer. */
struct MiniKernelCosts
{
    double syscallFixedNs = 1750.0; ///< ring transition + entry
    double openLookupNs = 650.0;    ///< path walk + fd install
    double readPerByteNs = 0.031;   ///< page-cache copy (~32 GB/s)
    double closeNs = 210.0;
};

/** The costs every MiniKernel charges. */
inline constexpr MiniKernelCosts kMiniKernelCosts{};

/**
 * A miniature kernel file layer for the §6.4.1 microbenchmark: an
 * in-memory set of files, open/read/close with realistic per-call
 * costs (ring transition, fd table work, page-cache copy per byte).
 */
class MiniKernel
{
  public:
    explicit MiniKernel(vm::VirtualClock &clock);

    /** Create a file with @p size deterministic bytes. */
    void addFile(const std::string &path, std::uint64_t size,
                 std::uint32_t seed);

    /** @return fd >= 0, or -1 when the path does not exist. */
    int open(const std::string &path);

    /**
     * Read up to @p len bytes at the fd's offset into @p out (may be
     * nullptr to model a read into sandbox memory whose metering the
     * caller handles).
     * @return bytes read.
     */
    std::int64_t read(int fd, std::uint8_t *out, std::uint64_t len);

    bool close(int fd);

    const std::vector<std::uint8_t> *fileData(const std::string &path) const;

  private:
    void charge(double ns) { clock.tick(clock.nsToCycles(ns)); }

    vm::VirtualClock &clock;
    std::map<std::string, std::vector<std::uint8_t>> files;
    struct OpenFile
    {
        const std::vector<std::uint8_t> *data;
        std::uint64_t offset;
    };
    std::map<int, OpenFile> fds;
    int nextFd = 3;
};

} // namespace hfi::syscall

#endif // HFI_SYSCALL_INTERPOSER_H
