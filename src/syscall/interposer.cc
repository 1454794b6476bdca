#include "syscall/interposer.h"

#include <algorithm>
#include <cstring>

namespace hfi::syscall
{

HfiInterposer::HfiInterposer(core::HfiContext &ctx,
                             std::vector<std::uint32_t> allowed_nrs)
    : ctx(ctx), allowed(std::move(allowed_nrs))
{
}

Verdict
HfiInterposer::onSyscall(const SeccompData &data)
{
    ++mediated_;
    // The syscall instruction decodes into a jump to the exit handler
    // (HfiContext charges the 1-cycle check + redirect, §4.4)...
    ctx.onSyscall();
    // ...the handler dispatches on the MSR-recorded cause and checks
    // its policy...
    ctx.readExitReasonMsr();
    ctx.clock().tick(kInterposeCosts.hfiHandlerCycles);
    const bool ok =
        std::find(allowed.begin(), allowed.end(), data.nr) != allowed.end();
    // ...and resumes the sandbox.
    ctx.reenter();
    return ok ? Verdict::Allow : Verdict::Deny;
}

SeccompInterposer::SeccompInterposer(vm::VirtualClock &clock,
                                     std::vector<std::uint32_t> allowed_nrs)
    : clock(clock), filter_(makeAllowlistFilter(allowed_nrs))
{
}

Verdict
SeccompInterposer::onSyscall(const SeccompData &data)
{
    ++mediated_;
    const BpfResult res = runFilter(filter_, data);
    clock.tick(clock.nsToCycles(
        kInterposeCosts.seccompFixedNs +
        kInterposeCosts.bpfInsnNs *
            static_cast<double>(res.instructionsExecuted)));
    return res.verdict == kSeccompRetAllow ? Verdict::Allow : Verdict::Deny;
}

MiniKernel::MiniKernel(vm::VirtualClock &clock) : clock(clock)
{
}

void
MiniKernel::addFile(const std::string &path, std::uint64_t size,
                    std::uint32_t seed)
{
    std::vector<std::uint8_t> data(size);
    std::uint64_t state = seed | 1;
    for (auto &b : data) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        b = static_cast<std::uint8_t>(state >> 56);
    }
    files[path] = std::move(data);
}

int
MiniKernel::open(const std::string &path)
{
    charge(kMiniKernelCosts.syscallFixedNs + kMiniKernelCosts.openLookupNs);
    const auto it = files.find(path);
    if (it == files.end())
        return -1;
    const int fd = nextFd++;
    fds[fd] = OpenFile{&it->second, 0};
    return fd;
}

std::int64_t
MiniKernel::read(int fd, std::uint8_t *out, std::uint64_t len)
{
    charge(kMiniKernelCosts.syscallFixedNs);
    const auto it = fds.find(fd);
    if (it == fds.end())
        return -1;
    OpenFile &file = it->second;
    const std::uint64_t avail = file.data->size() - file.offset;
    const std::uint64_t n = std::min(len, avail);
    charge(kMiniKernelCosts.readPerByteNs * static_cast<double>(n));
    if (out && n)
        std::memcpy(out, file.data->data() + file.offset, n);
    file.offset += n;
    return static_cast<std::int64_t>(n);
}

bool
MiniKernel::close(int fd)
{
    charge(kMiniKernelCosts.syscallFixedNs + kMiniKernelCosts.closeNs);
    return fds.erase(fd) != 0;
}

const std::vector<std::uint8_t> *
MiniKernel::fileData(const std::string &path) const
{
    const auto it = files.find(path);
    return it == files.end() ? nullptr : &it->second;
}

} // namespace hfi::syscall
