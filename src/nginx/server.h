/**
 * @file
 * An NGINX-style static webserver with a sandboxed "OpenSSL" session
 * layer — the §6.4.2 / Fig 5 experiment.
 *
 * The server answers requests for files of a given size; each response
 * is encrypted in TLS-sized records with real ChaCha20 keyed by a
 * per-connection session key. The crypto module and the session keys
 * are what gets protected, ERIM-style, under one of three schemes:
 *
 *  - None: keys live in plain process memory (the Heartbleed exposure);
 *  - Hfi: each crypto call enters an HFI *native* sandbox (no
 *    recompilation) with serialized enter/exit and the key region
 *    metadata re-loaded from memory on every transition — the paper's
 *    explanation for HFI's slightly-higher-than-MPK cost (Fig 5);
 *  - Mpk: each crypto call switches the MPK domain with wrpkru on the
 *    way in and out (ERIM's transition sequence).
 *
 * The encryption itself is identical across schemes, so throughput
 * differences isolate exactly the protection-domain crossing costs.
 */

#ifndef HFI_NGINX_SERVER_H
#define HFI_NGINX_SERVER_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/context.h"
#include "mpk/mpk.h"
#include "syscall/interposer.h"
#include "vm/virtual_clock.h"

namespace hfi::nginx
{

/** How session keys / crypto state are protected. */
enum class SessionProtection
{
    None,
    Hfi,
    Mpk,
};

const char *sessionProtectionName(SessionProtection p);

/** One scheme's Fig 5 measurement at one file size. */
struct ServeStats
{
    std::uint64_t requests = 0;
    double totalNs = 0;
    std::uint64_t bytesServed = 0;

    double
    throughputRps() const
    {
        return totalNs > 0 ? static_cast<double>(requests) * 1e9 / totalNs
                           : 0;
    }
};

/**
 * The server: owns the session-key buffer, programs the protection
 * scheme, and serves requests against virtual time.
 */
class NginxServer
{
  public:
    NginxServer(vm::Mmu &mmu, core::HfiContext &ctx,
                mpk::MpkDomainManager &mpk, syscall::MiniKernel &kernel,
                SessionProtection protection = SessionProtection::None);

    /** Publish a file of @p size bytes at @p path. */
    void addFile(const std::string &path, std::uint64_t size,
                 std::uint32_t seed);

    /**
     * Serve @p count requests for @p path and return the stats; the
     * response payload is genuinely encrypted (the checksum of the
     * ciphertext is folded into the stats for verification).
     */
    ServeStats serve(const std::string &path, std::uint64_t count);

    /** FNV checksum over all ciphertext bytes produced so far. */
    std::uint64_t ciphertextChecksum() const { return cipherSum; }

    /** Virtual address of the (protected) session-key buffer. */
    vm::VAddr sessionKeyAddress() const { return keyAddr; }

    core::HfiContext &context() { return ctx; }

  private:
    /** Cross into the crypto domain, do @p bytes of cipher, cross out. */
    void cryptoCall(std::uint64_t bytes);

    vm::Mmu &mmu;
    core::HfiContext &ctx;
    mpk::MpkDomainManager &mpk_;
    syscall::MiniKernel &kernel;
    SessionProtection protection_;

    vm::VAddr keyAddr = 0;
    unsigned mpkKey = 0;
    std::uint64_t cipherSum = 0xcbf29ce484222325ULL;
    std::uint32_t cipherCounter = 1;
};

} // namespace hfi::nginx

#endif // HFI_NGINX_SERVER_H
