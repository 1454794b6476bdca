/**
 * @file
 * Native-binary sandboxing (§6.4): protect OpenSSL session keys inside
 * NGINX with HFI's native sandbox — no recompilation — and interpose on
 * the sandboxed code's system calls.
 *
 * Contrasts the three Fig 5 configurations and the two §6.4.1
 * interposition mechanisms on live traffic.
 *
 * Build & run:  ./build/examples/native_sandboxing
 */

#include <cstdio>

#include "nginx/server.h"
#include "syscall/interposer.h"

using namespace hfi;

int
main()
{
    std::printf("== Serving 200 requests for a 32 KiB file under each "
                "session-key protection ==\n");
    double unsafe_rps = 0;
    for (auto protection :
         {nginx::SessionProtection::None, nginx::SessionProtection::Mpk,
          nginx::SessionProtection::Hfi}) {
        vm::VirtualClock clock;
        vm::Mmu mmu(clock);
        core::HfiContext ctx(clock);
        mpk::MpkDomainManager mpk_mgr(mmu);
        syscall::MiniKernel kernel(clock);
        nginx::NginxServer server(mmu, ctx, mpk_mgr, kernel, protection);
        server.addFile("/asset.bin", 32 * 1024, 3);

        const auto stats = server.serve("/asset.bin", 200);
        const double rps = stats.throughputRps();
        if (protection == nginx::SessionProtection::None)
            unsafe_rps = rps;
        std::printf("  %-7s %8.0f req/s  (%5.2f%% overhead)  ciphertext "
                    "checksum %016lx\n",
                    nginx::sessionProtectionName(protection), rps,
                    unsafe_rps > 0 ? (unsafe_rps / rps - 1.0) * 100.0 : 0.0,
                    static_cast<unsigned long>(server.ciphertextChecksum()));
    }
    std::printf("  A Heartbleed-style over-read of the key page now "
                "faults instead of leaking.\n");

    std::printf("\n== Syscall interposition from the native sandbox "
                "(open/read/close x 20000) ==\n");
    for (int use_seccomp = 0; use_seccomp < 2; ++use_seccomp) {
        vm::VirtualClock clock;
        core::HfiContext ctx(clock);
        syscall::MiniKernel kernel(clock);
        kernel.addFile("/etc/app.conf", 16 * 1024, 5);

        core::SandboxConfig cfg;
        cfg.isHybrid = false;
        cfg.exitHandler = 0x7000'0000;
        ctx.enter(cfg);
        syscall::HfiInterposer hfi_path(
            ctx, {syscall::kSysOpen, syscall::kSysRead, syscall::kSysClose});
        syscall::SeccompInterposer seccomp_path(
            clock,
            {syscall::kSysOpen, syscall::kSysRead, syscall::kSysClose});

        std::vector<std::uint8_t> buf(16 * 1024);
        const double t0 = clock.nowNs();
        for (int i = 0; i < 20000; ++i) {
            syscall::SeccompData data;
            for (std::uint32_t nr : {syscall::kSysOpen, syscall::kSysRead,
                                     syscall::kSysClose}) {
                data.nr = nr;
                if (use_seccomp)
                    seccomp_path.onSyscall(data);
                else
                    hfi_path.onSyscall(data);
            }
            const int fd = kernel.open("/etc/app.conf");
            kernel.read(fd, buf.data(), buf.size());
            kernel.close(fd);
        }
        std::printf("  %-12s %.3f virtual ms\n",
                    use_seccomp ? "seccomp-bpf:" : "HFI redirect:",
                    (clock.nowNs() - t0) / 1e6);
    }

    std::printf("\nBlocked syscall demo: the sandbox tries mmap, the "
                "policy denies it:\n");
    {
        vm::VirtualClock clock;
        core::HfiContext ctx(clock);
        core::SandboxConfig cfg;
        cfg.isHybrid = false;
        cfg.exitHandler = 0x7000'0000;
        ctx.enter(cfg);
        syscall::HfiInterposer interposer(
            ctx, {syscall::kSysRead, syscall::kSysWrite});
        syscall::SeccompData data;
        data.nr = syscall::kSysMmap;
        const auto verdict = interposer.onSyscall(data);
        std::printf("  mmap from the sandbox: %s\n",
                    verdict == syscall::Verdict::Deny ? "DENIED" : "allowed");
    }
    return 0;
}
