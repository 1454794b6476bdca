#include "nginx/server.h"

#include <algorithm>

#include "workloads/crypto.h"

namespace hfi::nginx
{

namespace
{

/** TLS record size: one crypto call (at least) per record. */
constexpr std::uint64_t kRecordBytes = 16 * 1024;
/**
 * Protection-domain crossings per request that are independent of the
 * payload (handshake-adjacent key derivations, MAC keys, IV setup —
 * ERIM counts dozens for NGINX+OpenSSL).
 */
constexpr unsigned kFixedCryptoCalls = 28;
/** Additional crossings per TLS record (encrypt + MAC). */
constexpr unsigned kCallsPerRecord = 6;
/** Event-loop + parsing + header cost per request, ns. */
constexpr double kRequestFixedNs = 9500.0;
/** ChaCha20 throughput in cycles per byte. */
constexpr double kCryptoCyclesPerByte = 1.2;

} // namespace

const char *
sessionProtectionName(SessionProtection p)
{
    switch (p) {
      case SessionProtection::None: return "unsafe";
      case SessionProtection::Hfi: return "hfi";
      case SessionProtection::Mpk: return "mpk";
    }
    return "?";
}

NginxServer::NginxServer(vm::Mmu &mmu, core::HfiContext &ctx,
                         mpk::MpkDomainManager &mpk,
                         syscall::MiniKernel &kernel,
                         SessionProtection protection)
    : mmu(mmu), ctx(ctx), mpk_(mpk), kernel(kernel), protection_(protection)
{
    // Allocate the session-key page and protect it per the scheme.
    auto addr = mmu.mmap(vm::kPageSize);
    keyAddr = addr.value_or(0);

    if (protection_ == SessionProtection::Mpk) {
        if (auto key = mpk_.pkeyAlloc()) {
            mpkKey = *key;
            mpk_.pkeyMprotect(keyAddr, vm::kPageSize, mpkKey);
        }
        // Default PKRU: crypto domain closed.
        mpk_.switchToDomain(0);
    }
}

void
NginxServer::addFile(const std::string &path, std::uint64_t size,
                     std::uint32_t seed)
{
    kernel.addFile(path, size, seed);
}

void
NginxServer::cryptoCall(std::uint64_t bytes)
{
    auto &clock = mmu.clock();

    switch (protection_) {
      case SessionProtection::None:
        break;
      case SessionProtection::Hfi: {
        // Program the key region (metadata moves from memory to HFI
        // registers on each transition — §6.4.2) and enter a native
        // sandbox with serialized transitions.
        core::ImplicitDataRegion keys;
        keys.basePrefix = keyAddr;
        keys.lsbMask = vm::kPageSize - 1;
        keys.permRead = true;
        keys.permWrite = true;
        ctx.setRegion(core::kFirstImplicitDataRegion, keys);

        core::SandboxConfig sc;
        sc.isHybrid = false;
        sc.isSerialized = true;
        sc.exitHandler = 0x7100'0000;
        ctx.enter(sc);
        break;
      }
      case SessionProtection::Mpk:
        mpk_.switchToDomain(mpkKey);
        break;
    }

    // The cipher work itself (identical across schemes).
    clock.tick(static_cast<vm::Cycles>(
        kCryptoCyclesPerByte * static_cast<double>(bytes)));

    switch (protection_) {
      case SessionProtection::None:
        break;
      case SessionProtection::Hfi:
        ctx.exit();
        break;
      case SessionProtection::Mpk:
        mpk_.switchToDomain(0);
        break;
    }
}

ServeStats
NginxServer::serve(const std::string &path, std::uint64_t count)
{
    auto &clock = mmu.clock();
    ServeStats stats;
    const double start = clock.nowNs();

    // Session key derived once per serve batch (per "connection").
    std::array<std::uint8_t, 32> key{};
    for (int i = 0; i < 32; ++i)
        key[i] = static_cast<std::uint8_t>(i * 37 + 11);
    std::array<std::uint8_t, 12> nonce{};

    for (std::uint64_t r = 0; r < count; ++r) {
        // Event loop + request parse + response headers.
        clock.tick(clock.nsToCycles(kRequestFixedNs));

        // Fixed key-handling crossings (handshake-adjacent work).
        for (unsigned c = 0; c < kFixedCryptoCalls; ++c)
            cryptoCall(64);

        // Read and encrypt the payload record by record.
        const int fd = kernel.open(path);
        if (fd < 0)
            continue;
        std::vector<std::uint8_t> record(kRecordBytes);
        std::int64_t got;
        while ((got = kernel.read(fd, record.data(), record.size())) > 0) {
            for (unsigned c = 1; c < kCallsPerRecord; ++c)
                cryptoCall(64); // MAC / IV bookkeeping crossings
            cryptoCall(static_cast<std::uint64_t>(got));

            // Real encryption of the record (host-side compute whose
            // cycle cost was charged in cryptoCall).
            const auto stream =
                workloads::crypto::chacha20Block(key, nonce, cipherCounter++);
            for (std::int64_t i = 0; i < got; ++i) {
                const std::uint8_t b =
                    record[static_cast<std::size_t>(i)] ^ stream[i % 64];
                cipherSum ^= b;
                cipherSum *= 0x100000001b3ULL;
            }
            stats.bytesServed += static_cast<std::uint64_t>(got);
        }
        kernel.close(fd);
        ++stats.requests;
    }

    stats.totalNs = clock.nowNs() - start;
    return stats;
}

} // namespace hfi::nginx
